package fpva

// This file is the out-of-process solver executor: a Service configured
// with WithSolverExecutor(ExecSubprocess) routes every generate solve
// through a pool of crash-isolated worker subprocesses instead of calling
// the pipeline in-process. The workers speak a length-prefixed frame
// protocol (internal/workerpool) whose payloads are defined here: the
// request is a versioned JSON solve envelope carrying the array text and
// the generation options, events are phase transitions, and the response
// is the plan's v1 wire encoding — the exact bytes the service caches and
// serves, so a subprocess solve is bit-identical to an in-process one
// everywhere vectors are concerned (timing statistics are measurements,
// not content, and naturally differ run to run).
//
// cmd/fpvaworker is the stock worker binary: ServeSolverWorker on
// stdin/stdout. Any binary speaking the same protocol can be substituted
// via WithWorkerCommand.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/workerpool"
)

// SolverExecutor selects where a Service runs its generate solves.
type SolverExecutor int

const (
	// ExecInProcess runs solves in the service's own process (the default).
	ExecInProcess SolverExecutor = iota
	// ExecSubprocess runs each solve in a supervised worker subprocess: a
	// crashing or runaway solver fails only its own job, and the pool
	// restarts the worker for the next one.
	ExecSubprocess
)

func (e SolverExecutor) String() string {
	switch e {
	case ExecInProcess:
		return "in-process"
	case ExecSubprocess:
		return "subprocess"
	}
	return fmt.Sprintf("SolverExecutor(%d)", int(e))
}

// ParseSolverExecutor maps the command-line executor names ("in-process",
// "subprocess") to a SolverExecutor.
func ParseSolverExecutor(s string) (SolverExecutor, error) {
	switch s {
	case "in-process":
		return ExecInProcess, nil
	case "subprocess":
		return ExecSubprocess, nil
	}
	return 0, fmt.Errorf("fpva: unknown solver executor %q", s)
}

const (
	// SolveFormat names the solver-worker request envelope.
	SolveFormat = "fpva.solve"
)

// solveEnvelope is one solve request on the worker wire: the array in its
// canonical text format plus every generation option that shapes the
// vectors. It follows the same versioning policy as the other envelopes
// (codec.go): same format name + version across supervisor and worker, or
// the worker rejects the job.
type solveEnvelope struct {
	Format     string `json:"format"`
	Version    int    `json:"version"`
	Array      string `json:"array"`
	Direct     bool   `json:"direct,omitempty"`
	BlockSize  int    `json:"blockSize"`
	Workers    int    `json:"workers,omitempty"`
	SkipLeak   bool   `json:"skipLeak,omitempty"`
	PathEngine int    `json:"pathEngine"`
	CutEngine  int    `json:"cutEngine"`
}

// solveEvent is one progress event on the worker wire (a generation phase
// transition, forwarded to the flight's subscribers as it happens).
type solveEvent struct {
	Kind  int `json:"kind"`
	Phase int `json:"phase"`
}

// marshalSolveRequest renders the (array, options) pair as a solve
// envelope.
func marshalSolveRequest(a *Array, cfg genConfig) ([]byte, error) {
	return json.Marshal(solveEnvelope{
		Format:     SolveFormat,
		Version:    CodecVersion,
		Array:      a.Text(),
		Direct:     cfg.direct,
		BlockSize:  cfg.blockSize,
		Workers:    cfg.workers,
		SkipLeak:   cfg.skipLeak,
		PathEngine: int(cfg.pathEngine),
		CutEngine:  int(cfg.cutEngine),
	})
}

// solveSubprocess runs one deduplicated solve on the worker pool: request
// out, phase events fanned to the flight as they stream in, plan wire
// bytes back. The returned plan is decoded from those bytes, which it
// keeps verbatim — the cache entry and every later PlanBytes fetch serve
// exactly what the worker produced.
func (s *Service) solveSubprocess(ctx context.Context, fl *flight, a *Array, cfg genConfig) (wirePlan, error) {
	req, err := marshalSolveRequest(a, cfg)
	if err != nil {
		return wirePlan{}, fmt.Errorf("fpva: generate: encode solve request: %w", err)
	}
	resp, err := s.pool.Do(ctx, req, func(ev []byte) {
		var e solveEvent
		if json.Unmarshal(ev, &e) != nil {
			return // an unknown event shape is not worth killing the solve over
		}
		fl.emit(s, Event{Kind: EventKind(e.Kind), Phase: Phase(e.Phase)})
	})
	if err != nil {
		return wirePlan{}, fmt.Errorf("fpva: generate: %w", err)
	}
	plan, err := DecodePlan(bytes.NewReader(resp))
	if err != nil {
		return wirePlan{}, fmt.Errorf("fpva: generate: worker returned an invalid plan: %w", err)
	}
	return wirePlan{plan: plan, wire: resp}, nil
}

// ServeSolverWorker runs the solver-worker side of the subprocess
// executor protocol over (r, w) until r reaches EOF (the supervisor
// closing the worker's stdin is the graceful-drain signal) or ctx is
// canceled. cmd/fpvaworker calls it on stdin/stdout; embedding callers
// can serve the same protocol over any stream pair.
//
// Each job decodes a solve envelope, runs the generation pipeline with
// phase events streamed back as they happen, and answers with the plan's
// v1 wire encoding. Vectors are deterministic, so the response bytes are
// bit-identical to an in-process solve of the same request up to the
// timing statistics.
func ServeSolverWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return workerpool.Serve(ctx, r, w, solveWorkerJob)
}

// solveWorkerJob handles one solve inside the worker process.
func solveWorkerJob(ctx context.Context, req []byte, emit func([]byte)) ([]byte, error) {
	var env solveEnvelope
	if err := json.Unmarshal(req, &env); err != nil {
		return nil, fmt.Errorf("fpva: decode solve request: %w: %v", ErrWireSyntax, err)
	}
	if err := checkEnvelope(env.Format, SolveFormat, env.Version); err != nil {
		return nil, err
	}
	g, err := grid.Parse(strings.NewReader(env.Array))
	if err != nil {
		return nil, fmt.Errorf("fpva: decode solve request: %w: %v", ErrWirePayload, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("fpva: decode solve request: %w: %v", ErrWirePayload, err)
	}
	cfg := genConfig{
		direct:     env.Direct,
		blockSize:  env.BlockSize,
		workers:    env.Workers,
		skipLeak:   env.SkipLeak,
		pathEngine: PathEngine(env.PathEngine),
		cutEngine:  CutEngine(env.CutEngine),
	}
	coreCfg, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	coreCfg.OnPhase = func(ph core.Phase, done bool) {
		kind := PhaseStarted
		if done {
			kind = PhaseFinished
		}
		ev, err := json.Marshal(solveEvent{Kind: int(kind), Phase: int(ph)})
		if err == nil {
			emit(ev)
		}
	}
	ts, err := core.Generate(ctx, g, coreCfg)
	if err != nil {
		return nil, err
	}
	plan := &Plan{a: &Array{g: g}, ts: ts, geometry: true}
	var buf bytes.Buffer
	if err := EncodePlan(&buf, plan); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// defaultWorkerCommand locates the stock fpvaworker binary: next to the
// current executable first (the install layout of `go build ./...`), then
// whatever PATH resolves.
func defaultWorkerCommand() []string {
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "fpvaworker")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return []string{cand}
		}
	}
	return []string{"fpvaworker"}
}

// newSolverPool builds the worker pool of a subprocess-executor service.
func newSolverPool(cfg serviceConfig) *workerpool.Pool {
	command := cfg.workerCmd
	if len(command) == 0 {
		command = defaultWorkerCommand()
	}
	if cfg.workerMemMB > 0 {
		command = append(append([]string(nil), command...),
			"-mem-limit-mb", fmt.Sprint(cfg.workerMemMB))
	}
	poolWorkers := cfg.poolSize
	if poolWorkers <= 0 {
		poolWorkers = cfg.workers
	}
	var rssLimit int64
	if cfg.workerMemMB > 0 {
		// The worker's runtime/debug.SetMemoryLimit is the soft ceiling; the
		// supervisor kills at twice that — headroom for the Go runtime to
		// shed memory before the hard backstop fires.
		rssLimit = int64(cfg.workerMemMB) << 20 * 2
	}
	return workerpool.New(workerpool.Config{
		Command:       command,
		Workers:       poolWorkers,
		JobTimeout:    cfg.solverTimeout,
		RSSLimitBytes: rssLimit,
		Stderr:        os.Stderr,
	})
}
