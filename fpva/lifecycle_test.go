package fpva

// Tests of the job lifecycle and the two-tier plan lookup: what a job
// reports (events, stats) must match what it did at the moment Wait
// returns, whichever tier served it.

import (
	"context"
	"slices"
	"testing"
)

// TestHitsReplayPhaseEvents: a cold solve, a memory hit, a disk hit on a
// restarted WithCacheDir service, and a memory hit after that disk hit all
// deliver the identical phase-event sequence, in-process and in a worker
// subprocess. The cold solve's live events are compared to phaseEvents
// too, so a change in phase emission that the replay does not follow
// fails here.
func TestHitsReplayPhaseEvents(t *testing.T) {
	a, err := NewArray(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range []SolverExecutor{ExecInProcess, ExecSubprocess} {
		for _, opts := range [][]GenOption{nil, {WithoutLeakage()}} {
			cfg := genConfig{blockSize: 5}
			for _, opt := range opts {
				opt(&cfg)
			}
			want := phaseEvents(cfg)
			name := exec.String()
			if cfg.skipLeak {
				name += "/without-leakage"
			}
			dir := t.TempDir()
			newSvc := func() *Service {
				if exec == ExecSubprocess {
					return newSubprocessService(t, "solve", WithCacheDir(dir))
				}
				svc := NewService(WithCacheDir(dir))
				t.Cleanup(func() { svc.Close() })
				return svc
			}
			check := func(step string, svc *Service, wantHit bool) {
				t.Helper()
				var seen []Event
				j := generateOn(t, svc, a, append(slices.Clip(opts), WithProgress(func(e Event) { seen = append(seen, e) }))...)
				if j.CacheHit() != wantHit {
					t.Errorf("%s %s: CacheHit = %t, want %t", name, step, j.CacheHit(), wantHit)
				}
				if !slices.Equal(seen, want) || !slices.Equal(j.Events(), want) {
					t.Errorf("%s %s: callback saw %v, job recorded %v, want %v", name, step, seen, j.Events(), want)
				}
			}
			svc1 := newSvc()
			check("cold solve", svc1, false)
			check("memory hit", svc1, true)
			svc1.Close()
			svc2 := newSvc()
			check("disk hit after restart", svc2, true)
			check("memory hit after disk hit", svc2, true)
			if st := svc2.Stats(); st.Solves != 0 || st.Store.Hits != 1 || st.CacheHits != 1 {
				t.Errorf("%s: restarted service solves=%d store hits=%d memory hits=%d, want 0/1/1",
					name, st.Solves, st.Store.Hits, st.CacheHits)
			}
		}
	}
}

// TestStatsCountEveryWaitedJob: the moment a job's Wait returns, Stats
// already counts it under its kind — with no settling delay.
func TestStatsCountEveryWaitedJob(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		a, err := NewArray(3, 2+i)
		if err != nil {
			t.Fatal(err)
		}
		gen := generateOn(t, svc, a)
		plan, err := gen.Plan()
		if err != nil {
			t.Fatal(err)
		}
		jobs := []*Job{gen}
		for _, submit := range []func() (*Job, error){
			func() (*Job, error) { return svc.SubmitCampaign(ctx, plan, WithTrials(50)) },
			func() (*Job, error) { return svc.SubmitVerify(ctx, plan, 10) },
			func() (*Job, error) { return svc.SubmitDiagnose(ctx, plan, nil) },
		} {
			j, err := submit()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		st := svc.Stats()
		for _, j := range jobs {
			if ks := st.Kinds[j.Kind().String()]; ks.Done != i || ks.Submitted != i {
				t.Fatalf("round %d, %v job returned from Wait: kind stats %+v, want %d done", i, j.Kind(), ks, i)
			}
		}
	}
}

// TestSubprocessCrashCountedBeforeWaitReturns: a worker crash fails its
// job, and by the time that job's Wait returns, Stats counts both the
// failure and the worker restart.
func TestSubprocessCrashCountedBeforeWaitReturns(t *testing.T) {
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := newSubprocessService(t, "crashsolve")
	for i := 1; i <= 3; i++ {
		j, err := sub.SubmitGenerate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err == nil {
			t.Fatal("a crashing worker produced a plan")
		}
		st := sub.Stats()
		if st.WorkerRestarts != i || st.Kinds["generate"].Failed != i {
			t.Fatalf("after crash %d returned: restarts=%d generate stats %+v", i, st.WorkerRestarts, st.Kinds["generate"])
		}
	}
}

// TestLRU pins the cost-budgeted LRU behind the plan and signature caches:
// eviction from the cold end until the budget holds, recency bumps on get
// and put, refresh re-charging, and refusal of values that cost nothing
// or more than the whole budget.
func TestLRU(t *testing.T) {
	c := newLRU(10, func(v int) int64 { return int64(v) })
	c.put("a", 4)
	c.put("b", 4)
	c.get("a")    // b is now the coldest
	c.put("c", 4) // 12 > 10: evicts b
	c.put("a", 2) // refresh: 2 + 4, a is the most recent
	c.put("d", 11)
	c.put("e", 0)
	if c.len() != 2 || c.total != 6 {
		t.Fatalf("len=%d total=%d, want 2 entries costing 6", c.len(), c.total)
	}
	c.put("f", 5) // 11 > 10: evicts c, the coldest
	for _, tc := range []struct {
		key  string
		want int
		ok   bool
	}{{"a", 2, true}, {"b", 0, false}, {"c", 0, false}, {"d", 0, false}, {"e", 0, false}, {"f", 5, true}} {
		if v, ok := c.get(tc.key); v != tc.want || ok != tc.ok {
			t.Errorf("get(%q) = %d, %t; want %d, %t", tc.key, v, ok, tc.want, tc.ok)
		}
	}
	if c.total != 7 {
		t.Errorf("total = %d, want 7", c.total)
	}
}
