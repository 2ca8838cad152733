package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/fpva"
	"repro/internal/store"
)

// The traced run measures per-layer numbers from outside the program:
// client spans around each HTTP call, NDJSON events stamped on arrival,
// /v1/stats deltas over the traced phase, and an in-process replay of
// the workload's inputs through the public functions of each layer.

// daemonStats is the part of GET /v1/stats the traced run reads.
type daemonStats struct {
	CacheHits      int   `json:"cacheHits"`
	CacheMisses    int   `json:"cacheMisses"`
	CacheCoalesced int   `json:"cacheCoalesced"`
	Solves         int   `json:"solves"`
	SolverWallNs   int64 `json:"solverWallNs"`
	SigCacheHits   int   `json:"sigCacheHits"`
	SigCacheMisses int   `json:"sigCacheMisses"`
	WorkerSpawns   int   `json:"workerSpawns"`
	WorkerRestarts int   `json:"workerRestarts"`
	WorkerKills    int   `json:"workerKills"`
	Store          *struct {
		Hits      int `json:"hits"`
		Misses    int `json:"misses"`
		Writes    int `json:"writes"`
		Evictions int `json:"evictions"`
	} `json:"store"`
	Kinds map[string]struct {
		Failed int `json:"failed"`
	} `json:"kinds"`
}

func (s daemonStats) failed() int {
	n := 0
	for _, k := range s.Kinds {
		n += k.Failed
	}
	return n
}

// traced holds the two halves of a traced run: an untraced half, whose
// latency is the baseline of the tracing overhead, then a traced half.
type traced struct {
	untraced, traced []*result
	s0, s1           daemonStats
	t0               time.Time
}

func tracedPhases(ctx context.Context, cs []*client, in *inputs, phase time.Duration) (*traced, error) {
	tr := &traced{}
	var err error
	if tr.untraced, _, err = runPhase(ctx, cs, in, phase/2); err != nil {
		return nil, err
	}
	// Read once, right after each phase and with no settling delay, so
	// counters that lag the results they describe show as they are.
	if err := cs[0].getJSON(ctx, "/v1/stats", &tr.s0); err != nil {
		return nil, err
	}
	for _, c := range cs {
		c.trace = true
	}
	tr.t0 = time.Now()
	if tr.traced, _, err = runPhase(ctx, cs, in, phase-phase/2); err != nil {
		return nil, err
	}
	if err := cs[0].getJSON(ctx, "/v1/stats", &tr.s1); err != nil {
		return nil, err
	}
	return tr, ctx.Err()
}

// span is one timed call: a client HTTP call, an event arrival (start ==
// end), or a replayed call into a layer. Spans of one job share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(parent int, name, req string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{id, parent, name, req, start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()})
	return id
}

// timed runs f and records it as a span.
func (r *recorder) timed(name, req string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	r.add(0, name, req, t0, t1)
	return t1.Sub(t0), err
}

func (r *recorder) addJobs(rs []*result) {
	for _, j := range rs {
		root := r.add(0, "fpvad.job", j.id, j.submitStart, j.fetchEnd)
		r.add(root, "fpvad.submit", j.id, j.submitStart, j.submitEnd)
		wait := r.add(root, "fpvad.wait", j.id, j.waitStart, j.waitEnd)
		for _, at := range j.eventAt {
			r.add(wait, "fpvad.event", j.id, at, at)
		}
		r.add(root, "fpvad.fetch", j.id, j.fetchStart, j.fetchEnd)
	}
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates per-layer samples.
type layers struct {
	m   map[string]metric
	rec *recorder
}

func (l *layers) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

func sum[T int | float64](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

func mean[T int | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(sum(xs)) / float64(len(xs))
}

// replayN bounds the in-process replay per workload, so a traced run
// stays within the run-time budget.
var replayN = map[string]int{"generate-cold": 12, "generate-exact": 24, "plan-cache": 200, "evaluate": 60}

// layerReport computes the per-layer metrics of a traced run, checks the
// bypass assertions and the stage reconciliation, and prints both.
func layerReport(ctx context.Context, w io.Writer, cfg config, wl workload, in *inputs, first *firstBodies, tr *traced) (*output, error) {
	all := append(append([]*result(nil), tr.untraced...), tr.traced...)
	_, checkErrs := wl.check(ctx, in, all, first)
	failures := countFailures(w, all, checkErrs)
	l := &layers{m: map[string]metric{}, rec: &recorder{t0: tr.t0}}
	l.rec.addJobs(tr.traced)
	ok := succeeded(tr.traced)

	// fpvad: the client's view of the three calls of every job.
	var submit, wait, fetch, gap, kib []float64
	var events []int
	for _, r := range ok {
		submit = append(submit, ms(r.submitEnd.Sub(r.submitStart)))
		wait = append(wait, ms(r.waitEnd.Sub(r.waitStart)))
		fetch = append(fetch, ms(r.fetchEnd.Sub(r.fetchStart)))
		gap = append(gap, ms(r.stageGap()))
		kib = append(kib, float64(r.size)/1024)
		events = append(events, r.events)
	}
	l.set("fpvad.submit_ms", median(submit), "ms")
	l.set("fpvad.wait_ms", median(wait), "ms")
	l.set("fpvad.fetch_ms", median(fetch), "ms")
	l.set("fpvad.stage_gap_ms", median(gap), "ms")
	l.set("fpvad.result_kib", mean(kib), "KiB")
	l.set("fpvad.events_per_job", mean(events), "count")
	byClass := map[string]float64{}
	for _, c := range classMedians(ok) {
		byClass[c.class] = c.p50
	}
	l.set("fpvad.mem_hit_p50_ms", byClass[classHot], "ms")
	l.set("fpvad.disk_hit_p50_ms", byClass[classCold], "ms")
	l.set("fpvad.campaign_p50_ms", byClass[classCampaign], "ms")
	l.set("fpvad.diagnose_p50_ms", byClass[classDiagnose], "ms")
	base := median(latenciesMS(succeeded(tr.untraced)))
	overhead := 0.0
	if base > 0 {
		overhead = 100 * (median(latenciesMS(ok)) - base) / base
	}
	l.set("fpvad.trace_overhead_pct", overhead, "%")

	// fpva, store and workerpool counters: /v1/stats deltas.
	s0, s1 := tr.s0, tr.s1
	hits, misses := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses
	l.set("fpva.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.set("fpva.coalesced", float64(s1.CacheCoalesced-s0.CacheCoalesced), "count")
	solves := s1.Solves - s0.Solves
	l.set("fpva.solves", float64(solves), "count")
	solverWall := time.Duration(s1.SolverWallNs - s0.SolverWallNs)
	l.set("fpva.solver_wall_ms", ms(solverWall)/float64(max(solves, 1)), "ms")
	sh, sm := s1.SigCacheHits-s0.SigCacheHits, s1.SigCacheMisses-s0.SigCacheMisses
	l.set("fpva.sigcache_hit_ratio", ratio(sh, sh+sm), "ratio")
	l.set("fpva.jobs_failed", float64(s1.failed()-s0.failed()), "count")
	var st0, st1 [4]int
	if s1.Store != nil {
		st1 = [4]int{s1.Store.Hits, s1.Store.Misses, s1.Store.Writes, s1.Store.Evictions}
	}
	if s0.Store != nil {
		st0 = [4]int{s0.Store.Hits, s0.Store.Misses, s0.Store.Writes, s0.Store.Evictions}
	}
	for i, n := range []string{"store.hits", "store.misses", "store.writes", "store.evictions"} {
		l.set(n, float64(st1[i]-st0[i]), "count")
	}
	l.set("workerpool.spawns", float64(s1.WorkerSpawns-s0.WorkerSpawns), "count")
	l.set("workerpool.restarts", float64(s1.WorkerRestarts-s0.WorkerRestarts), "count")
	l.set("workerpool.kills", float64(s1.WorkerKills-s0.WorkerKills), "count")

	// core and ilp: the statistics of the plans solved in the traced
	// phase, as the daemon recorded them in the plan wire format.
	solved, err := solvedPlans(ok, first)
	if err != nil {
		return nil, err
	}
	var tp, tc, tl, ilpWall []float64
	var np, nc, nl, ilpSolves, ilpNodes, nonopt []int
	var phases time.Duration
	for _, p := range solved {
		s := p.Stats()
		tp, tc, tl = append(tp, ms(s.TP)), append(tc, ms(s.TC)), append(tl, ms(s.TL))
		np, nc, nl = append(np, s.NP), append(nc, s.NC), append(nl, s.NL)
		ilpSolves, ilpNodes = append(ilpSolves, s.ILPSolves), append(ilpNodes, s.ILPNodes)
		ilpWall = append(ilpWall, ms(s.SolverWall))
		nonopt = append(nonopt, s.PathILPNonOptimal+s.CutILPNonOptimal)
		phases += s.TP + s.TC + s.TL
	}
	l.set("core.paths_ms", mean(tp), "ms")
	l.set("core.cuts_ms", mean(tc), "ms")
	l.set("core.leakage_ms", mean(tl), "ms")
	l.set("core.np", mean(np), "count")
	l.set("core.nc", mean(nc), "count")
	l.set("core.nl", mean(nl), "count")
	l.set("ilp.solves", mean(ilpSolves), "count")
	l.set("ilp.nodes", mean(ilpNodes), "count")
	l.set("ilp.wall_ms", mean(ilpWall), "ms")
	l.set("ilp.nonoptimal", mean(nonopt), "count")

	if err := replay(ctx, cfg, wl, l); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	// Bypass assertions and stage reconciliation.
	var broken []string
	assert := func(okay bool, format string, args ...any) {
		if !okay {
			broken = append(broken, fmt.Sprintf(format, args...))
		}
	}
	inProcess := wl.name != "generate-exact"
	if wl.name == "generate-cold" {
		assert(sum(ilpSolves) == 0, "generate-cold ran %d ILP solves; want 0", sum(ilpSolves))
	}
	if wl.name != "plan-cache" {
		assert(s1.Store == nil, "%s touched the plan store", wl.name)
	}
	if inProcess {
		assert(s1.WorkerSpawns == 0, "%s spawned %d solver workers; want 0", wl.name, s1.WorkerSpawns)
	}
	if wl.name == "plan-cache" {
		leaders := 0
		for _, r := range tr.traced {
			if r.req.class == classFresh && !r.follower {
				leaders++
			}
		}
		assert(solves == leaders, "plan-cache solved %d times for %d fresh keys", solves, leaders)
	}
	for _, r := range ok {
		if r.stageGap() < 0 {
			assert(false, "job %s: submit+wait+fetch exceed its latency by %v", r.id, -r.stageGap())
			break
		}
	}
	assert(phases <= solverWall, "core phases took %v, more than the %v of solver wall time", phases, solverWall)
	for _, b := range broken {
		fmt.Fprintln(w, "ASSERTION FAILED:", b)
	}
	fmt.Fprintf(w, "assertions: %d failed; stage gap p50 %.3f ms; core phases %.1f ms inside %.1f ms solver wall\n",
		len(broken), median(gap), ms(phases), ms(solverWall))

	spanPath := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", wl.name, cfg.seed))
	if err := l.rec.write(spanPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "traced phase: %d jobs, %d spans written to %s\n", len(tr.traced), len(l.rec.spans), spanPath)
	printMetrics(w, l.m)
	return &output{
		Correct:   failures == 0 && len(broken) == 0,
		Attempted: len(all),
		Failed:    failures,
		Metrics:   l.m,
	}, nil
}

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload does not use).
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// solvedPlans decodes the plans that the traced phase solved cold: every
// generate job that missed the cache. A fresh plan-cache key's payload is
// the first one recorded for it.
func solvedPlans(rs []*result, first *firstBodies) ([]*fpva.Plan, error) {
	var out []*fpva.Plan
	for _, r := range rs {
		if r.cacheHit || r.follower || (r.req.class != classGenerate && r.req.class != classFresh) {
			continue
		}
		body, err := r.resultBody()
		if err != nil {
			return nil, err
		}
		if r.req.class == classFresh {
			body = first.m[r.req.key]
		}
		p, err := fpva.DecodePlan(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// replayRequests rebuilds the workload's inputs from the seed and returns
// the first n requests of its stream, the same ones the daemon saw first.
func replayRequests(wl workload, seed int64, n int) (*inputs, []*request, error) {
	in, err := wl.build(seed)
	if err != nil {
		return nil, nil, err
	}
	reqs := make([]*request, n)
	for i := range reqs {
		if reqs[i], err = in.next(); err != nil {
			return nil, nil, err
		}
	}
	return in, reqs, nil
}

// timeJob times one service job from its submission until Wait returns,
// and until its first progress event (queue_ms: dispatch and slot wait;
// a job that emits no event counts its whole time).
func timeJob(ctx context.Context, submit func(fpva.Progress) (*fpva.Job, error)) (job, queue time.Duration, j *fpva.Job, err error) {
	var firstEvent atomic.Int64
	t0 := time.Now()
	j, err = submit(func(fpva.Event) { firstEvent.CompareAndSwap(0, int64(time.Since(t0))) })
	if err != nil {
		return 0, 0, nil, err
	}
	if err := j.Wait(ctx); err != nil {
		return 0, 0, nil, err
	}
	job = time.Since(t0)
	queue = time.Duration(firstEvent.Load())
	if queue == 0 {
		queue = job
	}
	return job, queue, j, nil
}

// replay runs the first requests of the workload's stream through an
// in-process fpva.Service and calls each layer's public functions on the
// same inputs, timing every call.
func replay(ctx context.Context, cfg config, wl workload, l *layers) error {
	in, reqs, err := replayRequests(wl, cfg.seed, replayN[wl.name])
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var arrays []arrayInput
	var plans [][]byte
	switch wl.name {
	case "evaluate":
		for _, p := range in.plans {
			wire, err := encodeArray(p.p.Array())
			if err != nil {
				return err
			}
			arrays = append(arrays, arrayInput{p.p.Array(), wire})
			plans = append(plans, p.wire)
		}
		if err := replayEvaluate(ctx, in, reqs, l); err != nil {
			return err
		}
	case "plan-cache":
		for _, r := range in.prime {
			arrays = append(arrays, in.arrays[r.key])
		}
		if plans, err = replayPlanCache(ctx, in, reqs, scratch, l); err != nil {
			return err
		}
		if _, _, _, err := replayGenerate(ctx, cfg, arrays[:overheadArrays], nil, l); err != nil {
			return err
		}
	default:
		for _, r := range reqs {
			arrays = append(arrays, in.arrays[r.key])
		}
		jobMS, queueMS, p, err := replayGenerate(ctx, cfg, arrays, in.params, l)
		if err != nil {
			return err
		}
		plans = p
		l.set("fpva.job_ms", median(jobMS), "ms")
		l.set("fpva.queue_ms", median(queueMS), "ms")
	}
	// Layers the workload does not exercise report 0.
	if wl.name != "plan-cache" {
		l.set("store.get_ms", 0, "ms")
		l.set("store.put_ms", 0, "ms")
	}
	if wl.name == "evaluate" {
		l.set("workerpool.overhead_ms", 0, "ms")
	} else {
		l.set("sim.campaign_ms", 0, "ms")
		l.set("sim.sims", 0, "count")
		l.set("sim.sims_per_ms", 0, "1/ms")
		l.set("diagnose.job_ms", 0, "ms")
		l.set("diagnose.compile_ms", 0, "ms")
		l.set("diagnose.probes", 0, "count")
	}
	return replayCodec(arrays, plans, l)
}

// overheadArrays is how many primed plan-cache arrays the traced run
// solves on both executors to measure the worker pool's overhead.
const overheadArrays = 12

// replayGenerate solves each array on an in-process Service and on a
// subprocess Service, one job at a time, and returns the in-process job
// and queue times and the plans' wire encodings. The subprocess job minus
// the in-process job is the worker pool's overhead.
func replayGenerate(ctx context.Context, cfg config, arrays []arrayInput, params *genParams, l *layers) (jobMS, queueMS []float64, plans [][]byte, err error) {
	inSvc := fpva.NewService(fpva.WithCacheBytes(0), fpva.WithServiceWorkers(1))
	defer inSvc.Close()
	subSvc := fpva.NewService(fpva.WithCacheBytes(0), fpva.WithServiceWorkers(1),
		fpva.WithSolverExecutor(fpva.ExecSubprocess), fpva.WithSolverPoolSize(1),
		fpva.WithWorkerCommand(filepath.Join(cfg.bin, "fpvaworker")))
	defer subSvc.Close()
	// Spawn the worker before timing, as the daemon's set-up does.
	warm, err := fpva.NewArray(3, 3)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, _, _, err := timeJob(ctx, func(p fpva.Progress) (*fpva.Job, error) {
		return subSvc.SubmitGenerate(ctx, warm, fpva.WithProgress(p))
	}); err != nil {
		return nil, nil, nil, fmt.Errorf("worker warm-up: %w", err)
	}
	var overhead []float64
	for i, a := range arrays {
		opts := params.options()
		req := fmt.Sprintf("replay-%d", i)
		var jin, qin, jsub time.Duration
		var j *fpva.Job
		if _, err := l.rec.timed("fpva.generate.in-process", req, func() (err error) {
			jin, qin, j, err = timeJob(ctx, func(p fpva.Progress) (*fpva.Job, error) {
				return inSvc.SubmitGenerate(ctx, a.a, append(opts, fpva.WithProgress(p))...)
			})
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
		if _, err := l.rec.timed("fpva.generate.subprocess", req, func() (err error) {
			jsub, _, _, err = timeJob(ctx, func(p fpva.Progress) (*fpva.Job, error) {
				return subSvc.SubmitGenerate(ctx, a.a, append(opts, fpva.WithProgress(p))...)
			})
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
		jobMS, queueMS = append(jobMS, ms(jin)), append(queueMS, ms(qin))
		overhead = append(overhead, ms(jsub-jin))
		p, err := j.Plan()
		if err != nil {
			return nil, nil, nil, err
		}
		inSvc.Forget(j.ID())
		wire, err := encodePlan(p)
		if err != nil {
			return nil, nil, nil, err
		}
		plans = append(plans, wire)
	}
	l.set("workerpool.overhead_ms", median(overhead), "ms")
	return jobMS, queueMS, plans, nil
}

// replayPlanCache primes an in-process Service configured like the
// plan-cache daemon, replays the stream's first requests through it, and
// times the plan store on the primed plans. It returns the primed plans.
func replayPlanCache(ctx context.Context, in *inputs, reqs []*request, scratch string, l *layers) ([][]byte, error) {
	svc := fpva.NewService(fpva.WithCacheBytes(cacheMemMB<<20), fpva.WithCacheDir(filepath.Join(scratch, "svc")))
	defer svc.Close()
	var plans [][]byte
	for _, r := range in.prime {
		j, err := svc.SubmitGenerate(ctx, in.arrays[r.key].a)
		if err != nil {
			return nil, err
		}
		if err := j.Wait(ctx); err != nil {
			return nil, err
		}
		wire, err := j.PlanBytes()
		if err != nil {
			return nil, err
		}
		plans = append(plans, wire)
		svc.Forget(j.ID())
	}
	var jobMS, queueMS []float64
	for i, r := range reqs {
		n := 1
		if r.twin {
			n = 2
		}
		for k := 0; k < n; k++ {
			var job, queue time.Duration
			if _, err := l.rec.timed("fpva.generate."+r.class, fmt.Sprintf("replay-%d-%d", i, k), func() (err error) {
				var j *fpva.Job
				job, queue, j, err = timeJob(ctx, func(p fpva.Progress) (*fpva.Job, error) {
					return svc.SubmitGenerate(ctx, in.arrays[r.key].a, fpva.WithProgress(p))
				})
				if err == nil {
					svc.Forget(j.ID())
				}
				return err
			}); err != nil {
				return nil, err
			}
			jobMS, queueMS = append(jobMS, ms(job)), append(queueMS, ms(queue))
		}
	}
	l.set("fpva.job_ms", median(jobMS), "ms")
	l.set("fpva.queue_ms", median(queueMS), "ms")

	st := store.Open(store.Options{Dir: filepath.Join(scratch, "store")})
	defer st.Close()
	var put, get []float64
	for i, wire := range plans {
		sum := sha256.Sum256(wire)
		key := hex.EncodeToString(sum[:])
		req := fmt.Sprintf("store-%d", i)
		d, _ := l.rec.timed("store.put", req, func() error { st.Put(key, wire); return nil })
		put = append(put, ms(d))
		var got []byte
		d, _ = l.rec.timed("store.get", req, func() error {
			var ok bool
			if got, ok = st.Get(key); !ok {
				return errors.New("store lost an entry it just wrote")
			}
			return nil
		})
		if !bytes.Equal(got, wire) {
			return nil, fmt.Errorf("store returned %d bytes for a %d-byte entry", len(got), len(wire))
		}
		get = append(get, ms(d))
	}
	l.set("store.put_ms", median(put), "ms")
	l.set("store.get_ms", median(get), "ms")
	return plans, nil
}

// replayEvaluate replays campaign and diagnose jobs through an
// in-process Service, then times Plan.Campaign, Plan.Diagnose and the
// signature compile directly.
func replayEvaluate(ctx context.Context, in *inputs, reqs []*request, l *layers) error {
	svc := fpva.NewService()
	defer svc.Close()
	for _, pl := range in.plans {
		j, err := svc.SubmitDiagnose(ctx, pl.p, nil)
		if err == nil {
			err = j.Wait(ctx)
		}
		if err != nil {
			return fmt.Errorf("signature warm-up: %w", err)
		}
	}
	var jobMS, queueMS, campMS, diagMS, compileMS []float64
	var sims []int
	var probes []int
	totalSims, totalCampMS := 0, 0.0
	for i, r := range reqs {
		p := in.plans[r.key].p
		req := fmt.Sprintf("replay-%d", i)
		c := r.campaignOptions()
		var job, queue time.Duration
		if _, err := l.rec.timed("fpva."+r.class, req, func() (err error) {
			var j *fpva.Job
			job, queue, j, err = timeJob(ctx, func(prog fpva.Progress) (*fpva.Job, error) {
				if r.class == classCampaign {
					return svc.SubmitCampaign(ctx, p, append(c, fpva.WithCampaignProgress(prog))...)
				}
				return svc.SubmitDiagnose(ctx, p, r.obs, fpva.WithDiagnoseProgress(prog))
			})
			if err == nil {
				svc.Forget(j.ID())
			}
			return err
		}); err != nil {
			return err
		}
		jobMS, queueMS = append(jobMS, ms(job)), append(queueMS, ms(queue))
		if r.class == classCampaign {
			var res fpva.CampaignResult
			d, err := l.rec.timed("sim.campaign", req, func() (err error) {
				res, err = p.Campaign(ctx, c...)
				return err
			})
			if err != nil {
				return err
			}
			campMS = append(campMS, ms(d))
			sims = append(sims, res.Sims)
			totalSims += res.Sims
			totalCampMS += ms(d)
			continue
		}
		var diag *fpva.Diagnosis
		d, err := l.rec.timed("diagnose.diagnose", req, func() (err error) {
			diag, err = p.Diagnose(ctx, r.obs)
			return err
		})
		if err != nil {
			return err
		}
		diagMS = append(diagMS, ms(d))
		probes = append(probes, len(diag.Probes))
	}
	for i, pl := range in.plans {
		// A freshly decoded plan has no memoized signature table, so
		// opening a session compiles one.
		fresh, err := fpva.DecodePlan(bytes.NewReader(pl.wire))
		if err != nil {
			return err
		}
		d, err := l.rec.timed("diagnose.compile", fmt.Sprintf("plan-%d", i), func() error {
			_, err := fresh.NewDiagnoseSession(ctx)
			return err
		})
		if err != nil {
			return err
		}
		compileMS = append(compileMS, ms(d))
	}
	l.set("fpva.job_ms", median(jobMS), "ms")
	l.set("fpva.queue_ms", median(queueMS), "ms")
	l.set("sim.campaign_ms", median(campMS), "ms")
	l.set("sim.sims", mean(sims), "count")
	l.set("sim.sims_per_ms", float64(totalSims)/max(totalCampMS, 1e-9), "1/ms")
	l.set("diagnose.job_ms", median(diagMS), "ms")
	l.set("diagnose.compile_ms", mean(compileMS), "ms")
	l.set("diagnose.probes", mean(probes), "count")
	return nil
}

// codecReps repeats each codec call; single calls of a few microseconds
// are below the clock's useful resolution.
const codecReps = 5

// replayCodec times the wire codec on the workload's arrays and plans.
func replayCodec(arrays []arrayInput, plans [][]byte, l *layers) error {
	var decA, encP, decP, kib []float64
	for _, a := range arrays {
		t0 := time.Now()
		for i := 0; i < codecReps; i++ {
			if _, err := fpva.DecodeArray(bytes.NewReader(a.wire)); err != nil {
				return err
			}
		}
		decA = append(decA, ms(time.Since(t0))/codecReps)
	}
	for i, wire := range plans {
		req := fmt.Sprintf("codec-%d", i)
		var p *fpva.Plan
		d, err := l.rec.timed("codec.decode_plan", req, func() (err error) {
			p, err = fpva.DecodePlan(bytes.NewReader(wire))
			return err
		})
		if err != nil {
			return err
		}
		decP = append(decP, ms(d))
		d, err = l.rec.timed("codec.encode_plan", req, func() error {
			_, err := encodePlan(p)
			return err
		})
		if err != nil {
			return err
		}
		encP = append(encP, ms(d))
		kib = append(kib, float64(len(wire))/1024)
	}
	l.set("codec.decode_array_ms", median(decA), "ms")
	l.set("codec.encode_plan_ms", median(encP), "ms")
	l.set("codec.decode_plan_ms", median(decP), "ms")
	l.set("codec.plan_kib", mean(kib), "KiB")
	return nil
}
