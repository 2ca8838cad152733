// Command fpvabench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh builds fpvad, fpvaworker and this program from
// the checkout, then runs it. It starts a real fpvad on loopback, sets it
// up, drives it with closed-loop clients for a fixed time, checks every
// answer outside the timed phase, and prints the metrics. README.md
// describes the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash fpvabench/run.sh --workload generate-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line is the end-to-end metrics as JSON; with
// --trace 1 it is the per-layer metrics of a traced run. --workload all
// runs every workload in turn, each with its header, report and JSON line.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// clients is the number of closed-loop clients, one per core of the
	// 2-core machine the benchmark was sized on.
	clients = 2
	// setupReps is how often a run sets the daemon up; setup_s is the
	// median, and the last daemon serves the measured phase.
	setupReps = 5
	// runLimit bounds a whole run, so a hung daemon ends the run with an
	// error instead of stalling it.
	runLimit = 170 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding fpvad and fpvaworker
	root     string // repository root; scratch files go under .bench_build
	commit   string
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fpvabench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	for _, name := range names {
		cfg.workload = name
		if err := runAndPrint(ctx, cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "fpvabench:", err)
			return 1
		}
	}
	return 0
}

// runAndPrint runs one workload and prints its result line.
func runAndPrint(ctx context.Context, cfg config, stdout io.Writer) error {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	out, err := run(ctx, cfg, stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("fpvabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: generate-cold, generate-exact, plan-cache, evaluate, or all (each in turn)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the fpvad and fpvaworker binaries")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the checkout, for the header")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := findWorkload(cfg.workload); !ok && cfg.workload != "all" {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return cfg, errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	cfg.trace = trace == 1
	for _, b := range []string{"fpvad", "fpvaworker"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return cfg, fmt.Errorf("-bin: %w", err)
		}
	}
	return cfg, nil
}

// metric is one named value of the output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark run: set-up, measured phase, checks, report.
func run(ctx context.Context, cfg config, w io.Writer) (*output, error) {
	wl, _ := findWorkload(cfg.workload)
	runDir := filepath.Join(cfg.root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", wl.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	log, err := os.Create(filepath.Join(runDir, "fpvad.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	printHeader(w, cfg)

	in, err := wl.build(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	var d *daemon
	var first *firstBodies
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		d, first, took, err = setUp(ctx, cfg, wl, in, runDir, rep, log)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	stopDaemon := sync.OnceValue(d.stop)
	defer stopDaemon()

	cs := make([]*client, clients)
	for i := range cs {
		spill, err := os.Create(filepath.Join(runDir, fmt.Sprintf("spill-%d", i)))
		if err != nil {
			return nil, err
		}
		defer spill.Close()
		cs[i] = newClient(d.base, wl.policy, spill, first)
		defer cs[i].close()
	}
	phase := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		tr, err := tracedPhases(ctx, cs, in, phase)
		if err != nil {
			return nil, err
		}
		if err := stopDaemon(); err != nil {
			return nil, err
		}
		return layerReport(ctx, w, cfg, wl, in, first, tr)
	}
	cpu0 := treeCPU(d.pid())
	rs, wall, err := runPhase(ctx, cs, in, phase)
	if err != nil {
		return nil, err
	}
	cpu := treeCPU(d.pid()) - cpu0
	hwm := treeHWM(d.pid())
	if err := stopDaemon(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	q, checkErrs := wl.check(ctx, in, rs, first)
	out := &output{Attempted: len(rs), Metrics: map[string]metric{}}
	failures := countFailures(w, rs, checkErrs)
	out.Failed = failures
	out.Correct = failures == 0
	ok := succeeded(rs)
	lat := latenciesMS(ok)
	m := out.Metrics
	m["jobs_per_s"] = metric{float64(len(ok)) / wall.Seconds(), "jobs/s"}
	m["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	m["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	m["setup_s"] = metric{median(setups), "s"}
	m["rss_peak_mib"] = metric{float64(hwm) / 1024, "MiB"}
	m["cpu_ms_per_job"] = metric{float64(cpu) / float64(time.Millisecond) / float64(max(len(ok), 1)), "ms"}
	m["vectors_per_valve"] = metric{q.vectorsPerValve(), "ratio"}
	m["fault_coverage"] = metric{q.coverage(), "ratio"}

	fmt.Fprintf(w, "phase: %d jobs attempted in %.2f s by %d closed-loop clients; %d failed (error_rate %.4f)\n",
		len(rs), wall.Seconds(), clients, failures, float64(failures)/float64(max(len(rs), 1)))
	fmt.Fprintf(w, "latency samples: %d (%d beyond p99)\n", len(lat), len(lat)-int(float64(len(lat))*0.99))
	fmt.Fprintf(w, "jobs per second of the phase: %v\n", perSecond(ok))
	fmt.Fprintf(w, "latency deciles (ms):")
	for d := 1; d <= 9; d++ {
		fmt.Fprintf(w, " %.2f", quantile(lat, float64(d)/10))
	}
	fmt.Fprintf(w, "\nsetup_s runs: %v\n", setups)
	fmt.Fprintf(w, "escapes: %d of %d single stuck-at faults over %d distinct plans\n", q.escapes, q.faults, q.plans)
	for _, c := range classMedians(ok) {
		fmt.Fprintf(w, "class %-9s p50 %8.3f ms over %d jobs\n", c.class, c.p50, c.n)
	}
	printMetrics(w, m)
	return out, nil
}

// setUp starts a daemon and runs the workload's priming requests. The
// returned duration runs from the process start to the last primed
// result.
func setUp(ctx context.Context, cfg config, wl workload, in *inputs, runDir string, rep int, log io.Writer) (*daemon, *firstBodies, time.Duration, error) {
	dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(cfg.bin, append(append([]string(nil), commonArgs...), wl.args(dir)...), log)
	if err != nil {
		return nil, nil, 0, err
	}
	first := &firstBodies{m: map[int][]byte{}}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(d.base, firstBody, nil, first)
		defer cs[i].close()
	}
	var health struct{ Status string }
	if err := cs[0].getJSON(ctx, "/healthz", &health); err != nil || health.Status != "ok" {
		d.stop()
		return nil, nil, 0, fmt.Errorf("fpvad not healthy (%q): %v", health.Status, err)
	}
	rs, _, err := drive(ctx, cs, listSource(in.prime), t0.Add(runLimit))
	took := time.Since(t0)
	for _, r := range rs {
		if err == nil {
			err = r.err
		}
	}
	if err != nil {
		d.stop()
		return nil, nil, 0, fmt.Errorf("priming: %w", err)
	}
	return d, first, took, nil
}

// countFailures counts jobs that failed or were refused, plus answers an
// oracle rejected, and prints the first few reasons.
func countFailures(w io.Writer, rs []*result, checkErrs []error) int {
	var reasons []error
	for _, r := range rs {
		if r.err != nil {
			reasons = append(reasons, r.err)
		}
	}
	for _, err := range checkErrs {
		if err != nil {
			reasons = append(reasons, err)
		}
	}
	for i, err := range reasons {
		if i == 5 {
			fmt.Fprintf(w, "FAIL: ... and %d more\n", len(reasons)-i)
			break
		}
		fmt.Fprintln(w, "FAIL:", err)
	}
	return len(reasons)
}

// perSecond counts the jobs finished in each second of the phase.
func perSecond(rs []*result) []int {
	var t0 time.Time
	for _, r := range rs {
		if t0.IsZero() || r.submitStart.Before(t0) {
			t0 = r.submitStart
		}
	}
	var out []int
	for _, r := range rs {
		s := int(r.fetchEnd.Sub(t0) / time.Second)
		for len(out) <= s {
			out = append(out, 0)
		}
		out[s]++
	}
	return out
}

func succeeded(rs []*result) []*result {
	var out []*result
	for _, r := range rs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func latenciesMS(rs []*result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.latency())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

type classMedian struct {
	class string
	n     int
	p50   float64
}

// classMedians gives the median latency of every job class present.
func classMedians(rs []*result) []classMedian {
	by := map[string][]float64{}
	for _, r := range rs {
		c := r.req.class
		if r.follower {
			c = "follower"
		}
		by[c] = append(by[c], ms(r.latency()))
	}
	var out []classMedian
	for c, l := range by {
		out = append(out, classMedian{c, len(l), median(l)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printHeader states the machine and the inputs of the recording.
func printHeader(w io.Writer, cfg config) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	fmt.Fprintf(w, "# fpvabench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# nproc=%d cpu=%q go=%s gomaxprocs=%d clients=%d\n", runtime.NumCPU(), cpu, runtime.Version(), runtime.GOMAXPROCS(0), clients)
	fmt.Fprintf(w, "# commit=%s source=%s\n", cfg.commit, sourceDigest(cfg.root))
}

// sourceDigest hashes the Go sources and module files under root, which
// names the code measured even where the checkout carries no git data.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && (e.Name() == ".git" || e.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !e.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
