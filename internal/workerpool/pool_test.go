package workerpool

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The tests re-exec this test binary as the worker subprocess: TestMain
// checks the mode env var and, when set, runs a worker behavior instead
// of the test suite.
const childEnv = "WORKERPOOL_TEST_CHILD"

func TestMain(m *testing.M) {
	mode := os.Getenv(childEnv)
	if mode == "" {
		os.Exit(m.Run())
	}
	switch mode {
	case "echo":
		// Normal worker: emits two events, then echoes the request.
		err := Serve(context.Background(), os.Stdin, os.Stdout, func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
			emit([]byte("e1"))
			emit([]byte("e2"))
			return append([]byte("echo:"), req...), nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
	case "fail":
		// Healthy worker whose handler reports a job error.
		Serve(context.Background(), os.Stdin, os.Stdout, func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
			return nil, errors.New("deliberate job failure")
		})
	case "crash":
		// Dies mid-job without a result (same stream shape as kill -9).
		Serve(context.Background(), os.Stdin, os.Stdout, func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
			os.Exit(3)
			return nil, nil
		})
	case "garbage":
		// Speaks hello, then spews non-frame garbage at the supervisor.
		os.Stdout.Write([]byte{frameHello, 0, 0, 0, byte(len(helloPayload))})
		os.Stdout.Write(helloPayload)
		for i := 0; i < 4096; i++ {
			os.Stdout.Write([]byte("this is not a frame "))
		}
		os.Exit(3) // nonzero: see the truncate mode's comment

	case "truncate":
		// Hello, then on the first job answers with a truncated frame:
		// a result header announcing 100 bytes followed by only 3.
		os.Stdout.Write([]byte{frameHello, 0, 0, 0, byte(len(helloPayload))})
		os.Stdout.Write(helloPayload)
		var hdr [frameHeaderLen]byte
		buf := make([]byte, 4096)
		os.Stdin.Read(buf) // wait for the job frame
		hdr[0] = frameResult
		binary.BigEndian.PutUint32(hdr[1:], 100)
		os.Stdout.Write(hdr[:])
		os.Stdout.Write([]byte("abc"))
		// Exit nonzero: under -race an os.Exit(0) runs racefini, which
		// sleeps ~1s before the process (and its pipe ends) actually goes
		// away — long enough for the ping watchdog to fire first and turn
		// this crash into a kill.
		os.Exit(3)
	case "hang":
		// Handler ignores cancellation entirely: the supervisor must
		// escalate cancel -> SIGKILL.
		Serve(context.Background(), os.Stdin, os.Stdout, func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
			time.Sleep(time.Hour)
			return nil, nil
		})
	case "slow":
		// Cooperative slow job: finishes in 10s or on cancel.
		Serve(context.Background(), os.Stdin, os.Stdout, func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
			select {
			case <-time.After(10 * time.Second):
				return []byte("done"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	case "bighold":
		// Allocates ~64 MiB, touches it, and holds until canceled: food
		// for the RSS kill switch.
		Serve(context.Background(), os.Stdin, os.Stdout, func(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
			hog := make([]byte, 64<<20)
			for i := range hog {
				hog[i] = byte(i)
			}
			select {
			case <-time.After(time.Hour):
			case <-ctx.Done():
			}
			runtime.KeepAlive(hog)
			return nil, errors.New("unreachable")
		})
	case "badhello":
		os.Stdout.Write([]byte{frameHello, 0, 0, 0, 6})
		os.Stdout.Write([]byte("fpvaw9"))
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "unknown child mode", mode)
		os.Exit(2)
	}
	os.Exit(0)
}

// childPool builds a pool whose workers are this test binary in the given
// child mode.
func childPool(t *testing.T, mode string, mut func(*Config)) *Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Command:      []string{exe},
		Workers:      1,
		PingInterval: 50 * time.Millisecond,
		CancelGrace:  300 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		SpawnTimeout: 5 * time.Second,
		Stderr:       os.Stderr,
	}
	if mut != nil {
		mut(&cfg)
	}
	os.Setenv(childEnv, mode)
	t.Cleanup(func() { os.Unsetenv(childEnv) })
	p := New(cfg)
	t.Cleanup(func() { p.Close() })
	return p
}

func TestDoRoundTrip(t *testing.T) {
	p := childPool(t, "echo", nil)
	var events []string
	resp, err := p.Do(context.Background(), []byte("hello"), func(ev []byte) {
		events = append(events, string(ev))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(resp); got != "echo:hello" {
		t.Fatalf("resp = %q", got)
	}
	if len(events) != 2 || events[0] != "e1" || events[1] != "e2" {
		t.Fatalf("events = %v", events)
	}
	// Second job reuses the same live worker.
	if _, err := p.Do(context.Background(), []byte("again"), nil); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Spawns != 1 || st.Restarts != 0 || st.JobsDone != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentJobsAcrossWorkers(t *testing.T) {
	p := childPool(t, "echo", func(c *Config) { c.Workers = 3 })
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := p.Do(context.Background(), []byte(fmt.Sprintf("r%d", i)), nil)
			if err == nil && string(resp) != fmt.Sprintf("echo:r%d", i) {
				err = fmt.Errorf("bad resp %q", resp)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := p.Stats(); st.JobsDone != 12 || st.Spawns > 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJobErrorKeepsWorkerAlive(t *testing.T) {
	p := childPool(t, "fail", nil)
	_, err := p.Do(context.Background(), []byte("x"), nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate job failure") {
		t.Fatalf("err = %v", err)
	}
	if st := p.Stats(); st.Restarts != 0 || st.Alive != 1 {
		t.Fatalf("worker should have survived a handler error: %+v", st)
	}
}

func TestCrashMidJobFailsOnlyThatJob(t *testing.T) {
	p := childPool(t, "crash", nil)
	_, err := p.Do(context.Background(), []byte("x"), nil)
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	// The pool recovers: next job spawns a fresh worker (which crashes
	// again in this mode, but on its own job).
	_, err = p.Do(context.Background(), []byte("y"), nil)
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("second err = %v", err)
	}
	st := p.Stats()
	if st.Spawns != 2 || st.Restarts != 2 || st.JobsFailed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStatsCountEveryReturnedResult pins the accounting invariant: the
// moment Do returns a slot's answer, Stats already counts that job — and,
// after a crash, the worker restart — with no settling delay.
func TestStatsCountEveryReturnedResult(t *testing.T) {
	for _, tc := range []struct {
		mode             string
		failed, restarts bool
	}{
		{"echo", false, false},
		{"fail", true, false},
		{"crash", true, true},
	} {
		p := childPool(t, tc.mode, nil)
		for i := 1; i <= 4; i++ {
			_, err := p.Do(context.Background(), []byte("x"), nil)
			if (err != nil) != tc.failed {
				t.Fatalf("%s job %d: err = %v", tc.mode, i, err)
			}
			st := p.Stats()
			done, failed, restarts := i, 0, 0
			if tc.failed {
				done, failed = 0, i
			}
			if tc.restarts {
				restarts = i
			}
			if st.JobsDone != done || st.JobsFailed != failed || st.Restarts != restarts {
				t.Fatalf("%s after job %d returned: stats = %+v, want done=%d failed=%d restarts=%d",
					tc.mode, i, st, done, failed, restarts)
			}
		}
	}
}

func TestKill9MidSolveFailsOneJobAndRestarts(t *testing.T) {
	p := childPool(t, "slow", nil)
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(context.Background(), []byte("x"), nil)
		done <- err
	}()
	// Wait for the worker to pick the job up, then SIGKILL it.
	var pid int
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pids := p.Pids(); len(pids) == 1 && p.Stats().Busy == 1 {
			pid = pids[0]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pid == 0 {
		t.Fatal("worker never became busy")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrWorkerCrashed) {
			t.Fatalf("err = %v, want ErrWorkerCrashed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job did not fail after kill -9")
	}
	// The pool is healthy again: a quick job on the respawned worker.
	os.Setenv(childEnv, "echo")
	if _, err := p.Do(context.Background(), []byte("z"), nil); err != nil {
		t.Fatalf("post-kill job: %v", err)
	}
	if st := p.Stats(); st.Restarts != 1 || st.JobsDone != 1 || st.JobsFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGarbageStreamIsASpawnFailure(t *testing.T) {
	// The garbage child completes the handshake then emits non-frame
	// bytes and exits; the job must fail, not hang or panic.
	p := childPool(t, "garbage", nil)
	_, err := p.Do(context.Background(), []byte("x"), nil)
	if err == nil {
		t.Fatal("garbage stream produced a successful job")
	}
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed (stream died on garbage)", err)
	}
}

func TestTruncatedFrameFailsJob(t *testing.T) {
	p := childPool(t, "truncate", nil)
	_, err := p.Do(context.Background(), []byte("x"), nil)
	if !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("err = %v, want ErrWorkerCrashed", err)
	}
	if st := p.Stats(); st.JobsFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeadlineEscalatesCancelThenKill(t *testing.T) {
	p := childPool(t, "hang", func(c *Config) {
		c.JobTimeout = 100 * time.Millisecond
		c.CancelGrace = 100 * time.Millisecond
	})
	start := time.Now()
	_, err := p.Do(context.Background(), []byte("x"), nil)
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrWorkerKilled) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %v to enforce", d)
	}
	if st := p.Stats(); st.Kills != 1 {
		t.Fatalf("stats = %+v, want one kill", st)
	}
}

func TestCooperativeCancel(t *testing.T) {
	p := childPool(t, "slow", nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, []byte("x"), nil)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && p.Stats().Busy == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The slow child honors ctx, so the worker must still be alive (no
	// kill): wait for the slot to settle, then check.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && p.Stats().Busy != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.Stats(); st.Kills != 0 || st.Restarts != 0 {
		t.Fatalf("cooperative cancel should not kill: %+v", st)
	}
}

func TestRSSKillSwitch(t *testing.T) {
	if !rssSupported() {
		t.Skip("no /proc on this platform")
	}
	p := childPool(t, "bighold", func(c *Config) {
		c.RSSLimitBytes = 32 << 20 // the child holds ~64 MiB
		c.RSSPoll = 25 * time.Millisecond
	})
	_, err := p.Do(context.Background(), []byte("x"), nil)
	if !errors.Is(err, ErrWorkerKilled) || !strings.Contains(err.Error(), "resident set") {
		t.Fatalf("err = %v, want RSS kill", err)
	}
}

func TestBadHelloIsASpawnFailure(t *testing.T) {
	p := childPool(t, "badhello", nil)
	_, err := p.Do(context.Background(), []byte("x"), nil)
	if err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("err = %v, want handshake failure", err)
	}
}

func TestSpawnFailureFailsJobNotPool(t *testing.T) {
	p := New(Config{Command: []string{"/nonexistent/fpvaworker-binary"},
		BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	defer p.Close()
	for i := 0; i < 2; i++ {
		if _, err := p.Do(context.Background(), []byte("x"), nil); err == nil {
			t.Fatal("spawn of a nonexistent binary succeeded?")
		}
	}
	if st := p.Stats(); st.JobsFailed != 2 || st.Spawns != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCloseDrainsWorkers(t *testing.T) {
	p := childPool(t, "echo", func(c *Config) { c.Workers = 2 })
	if _, err := p.Do(context.Background(), []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(context.Background(), []byte("y"), nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Close = %v", err)
	}
	if st := p.Stats(); st.Alive != 0 {
		t.Fatalf("workers alive after Close: %+v", st)
	}
}

func TestPingSurvivesLongJob(t *testing.T) {
	// With a 50ms ping interval and 4 allowed misses, a 1s job would be
	// killed if the worker could not pong mid-job. The slow child's serve
	// loop pongs while the handler runs.
	p := childPool(t, "slow", func(c *Config) { c.JobTimeout = time.Second })
	_, err := p.Do(context.Background(), []byte("x"), nil)
	// The job itself times out (slow = 10s), but via cancel, not pings.
	if err == nil {
		t.Fatal("want deadline error")
	}
	if st := p.Stats(); st.Kills != 0 {
		t.Fatalf("worker was killed despite answering pings: %+v", st)
	}
}
