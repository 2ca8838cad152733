package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"repro/fpva"
)

// Job classes: every measured job belongs to one, and the report gives
// each class its own median.
const (
	classGenerate = "generate" // a cold solve of a new array
	classHot      = "hot"      // plan-cache: a key of the hot set, served from memory
	classCold     = "cold"     // plan-cache: a key of the cold set, mostly served from disk
	classFresh    = "fresh"    // plan-cache: a new array (leader, or its coalesced follower)
	classCampaign = "campaign"
	classDiagnose = "diagnose"
)

// request is one entry of a workload's stream.
type request struct {
	class string
	key   int  // index into the workload's array or plan table
	twin  bool // submit twice back to back: a leader and a coalesced follower
	body  []byte
	camp  campaignParams     // campaign jobs
	obs   []fpva.Observation // diagnose jobs
}

func (r *request) campaignOptions() []fpva.CampaignOption {
	return []fpva.CampaignOption{fpva.WithTrials(r.camp.Trials), fpva.WithNumFaults(r.camp.Faults), fpva.WithSeed(r.camp.Seed)}
}

type arrayInput struct {
	a    *fpva.Array
	wire []byte
}

type planInput struct {
	p    *fpva.Plan // decoded from wire, as the daemon sees it
	wire []byte
	sim  *fpva.Simulator
}

// inputs is a workload's seeded input source. Two inputs built from one
// seed yield the same requests in the same order; next is safe for
// concurrent clients, which then share one deterministic sequence.
type inputs struct {
	mu     sync.Mutex
	rng    *rand.Rand
	gen    *arrayGen
	params *genParams
	arrays []arrayInput
	plans  []planInput
	prime  []*request // set-up requests, served before every measured phase
	queue  []*request // stream entries served before any drawn one
	drawn  int
	draw   func(in *inputs) (*request, error) // called with mu held
}

func (in *inputs) next() (*request, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.drawn++
	if len(in.queue) > 0 {
		r := in.queue[0]
		in.queue = in.queue[1:]
		return r, nil
	}
	return in.draw(in)
}

// array returns the input of a key under the lock that guards the table.
func (in *inputs) array(key int) arrayInput {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.arrays[key]
}

// addArray appends an array to the table and returns its generate request.
func (in *inputs) addArray(a *fpva.Array, wire []byte, class string) (*request, error) {
	in.arrays = append(in.arrays, arrayInput{a, wire})
	var params any
	if in.params != nil {
		params = in.params
	}
	body, err := submitBody("generate", "array", wire, "generate", params)
	return &request{class: class, key: len(in.arrays) - 1, body: body}, err
}

func (in *inputs) drawArray(class string) (*request, error) {
	a, wire, err := in.gen.next()
	if err != nil {
		return nil, err
	}
	return in.addArray(a, wire, class)
}

// workload is one traffic mix of the benchmark. README.md says why each
// was chosen.
type workload struct {
	name string
	// args are the fpvad flags of the workload; dir is an empty scratch
	// directory private to one daemon.
	args func(dir string) []string
	// build makes the seeded inputs.
	build func(seed int64) (*inputs, error)
	// policy is what clients do with result payloads.
	policy keepPolicy
	// check runs the workload's oracles on the measured jobs after the
	// phase, and measures the quality of the distinct plans served.
	check func(ctx context.Context, in *inputs, rs []*result, first *firstBodies) (*quality, []error)
}

var workloads = []workload{
	{name: "generate-cold", args: noArgs, build: buildGenerateCold, policy: spillBody, check: checkGenerateCold},
	{name: "generate-exact", args: exactArgs, build: buildGenerateExact, policy: spillBody, check: checkGenerateExact},
	{name: "plan-cache", args: planCacheArgs, build: buildPlanCache, policy: firstBody, check: checkPlanCache},
	{name: "evaluate", args: noArgs, build: buildEvaluate, policy: keepBody, check: checkEvaluate},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// commonArgs apply to every workload. The job TTL makes fpvad drop a
// finished job's record soon after the client fetched its result, so
// memory tracks the traffic mix rather than how many jobs one run got
// through.
var commonArgs = []string{"-job-ttl", "2s"}

func noArgs(string) []string { return nil }

// seedFor derives independent streams (arrays, request choices) from one
// workload seed.
func seedFor(seed int64, stream int64) int64 { return seed*1000003 + stream }

// generate-cold: the five Table I arrays once each, then distinct random
// arrays, all solved cold by the default engines in-process.
func buildGenerateCold(seed int64) (*inputs, error) {
	in := &inputs{gen: newArrayGen(seedFor(seed, 1), arraySpace{
		minSide: 6, maxSide: 18, maxChannels: 2, maxObstacles: 2,
	})}
	tab, err := tableI(fpva.BenchmarkNames()...)
	if err != nil {
		return nil, err
	}
	for _, a := range tab {
		wire, err := encodeArray(a)
		if err != nil {
			return nil, err
		}
		in.gen.mark(wire)
		r, err := in.addArray(a, wire, classGenerate)
		if err != nil {
			return nil, err
		}
		in.queue = append(in.queue, r)
	}
	in.draw = func(in *inputs) (*request, error) { return in.drawArray(classGenerate) }
	return in, nil
}

// exactWarmups is how many arrays generate-exact solves in set-up, one per
// solver worker, so the measured phase starts with the pool spawned.
const exactWarmups = 2

func exactArgs(string) []string {
	return []string{"-solver-exec", "subprocess", "-solver-workers", fmt.Sprint(exactWarmups)}
}

// generate-exact: distinct 3x3 to 4x4 arrays under the ILP engines. Up
// to two channels and one obstacle give thousands of distinct layouts.
// The space stops there: with two obstacles the ILP path engine fails on
// some layouts NewArray accepts, and ports off the standard corners give
// 4x4 solves of up to 0.4 s, a tail too sparse for a steady p99.
func buildGenerateExact(seed int64) (*inputs, error) {
	in := &inputs{params: exactEngines, gen: newArrayGen(seedFor(seed, 1), arraySpace{
		minSide: 3, maxSide: 4, maxChannels: 2, maxObstacles: 1,
	})}
	// The warm-up arrays are the same for every seed, so set-up time does
	// not depend on which arrays the seed drew.
	for i := 0; i < exactWarmups; i++ {
		a, err := fpva.NewArray(3, 3+i)
		if err != nil {
			return nil, err
		}
		wire, err := encodeArray(a)
		if err != nil {
			return nil, err
		}
		in.gen.mark(wire)
		r, err := in.addArray(a, wire, classGenerate)
		if err != nil {
			return nil, err
		}
		in.prime = append(in.prime, r)
	}
	in.draw = func(in *inputs) (*request, error) { return in.drawArray(classGenerate) }
	return in, nil
}

// plan-cache sizing. Plans of 9x9 to 11x11 arrays are 40-100 KB, so the
// hot set (about 0.4 MiB) fits the 1 MiB memory budget and the cold set
// (about 4 MiB) is four times it. Hot keys are two thirds of all jobs, so
// the median lands inside the memory-hit class rather than on the edge
// between two classes, where it would jump with the mix.
const (
	cacheHotKeys  = 6
	cacheColdKeys = 64
	cacheMemMB    = 1
	cacheHotShare = 0.85
	cacheFreshGap = 8 // every 8th request is a fresh leader/follower pair
)

func planCacheArgs(dir string) []string {
	return []string{"-cache-dir", filepath.Join(dir, "plans"), "-cache-mb", fmt.Sprint(cacheMemMB)}
}

func buildPlanCache(seed int64) (*inputs, error) {
	in := &inputs{
		rng: rand.New(rand.NewSource(seedFor(seed, 2))),
		gen: newArrayGen(seedFor(seed, 1), arraySpace{minSide: 9, maxSide: 11, maxChannels: 2, maxObstacles: 2}),
	}
	for i := 0; i < cacheHotKeys+cacheColdKeys; i++ {
		class := classHot
		if i >= cacheHotKeys {
			class = classCold
		}
		r, err := in.drawArray(class)
		if err != nil {
			return nil, err
		}
		in.prime = append(in.prime, r)
	}
	byKey := append([]*request(nil), in.prime...)
	// Prime the cold keys first, so the hot ones are the most recent and
	// stay in memory.
	in.prime = append(in.prime[cacheHotKeys:], in.prime[:cacheHotKeys]...)
	in.draw = func(in *inputs) (*request, error) {
		if in.drawn%cacheFreshGap == 0 {
			r, err := in.drawArray(classFresh)
			if r != nil {
				r.twin = true
			}
			return r, err
		}
		key := cacheHotKeys + in.rng.Intn(cacheColdKeys)
		if in.rng.Float64() < cacheHotShare {
			key = in.rng.Intn(cacheHotKeys)
		}
		return byKey[key], nil
	}
	return in, nil
}

// evaluateMix draws the plan of an evaluate job: half the jobs use the
// 10x10 plan, a sixth each the others. Job latency clusters by plan size,
// and with equal shares the median fell on the edge between the 10x10 and
// 15x15 clusters, where it jumped with the mix.
var evaluateMix = []int{0, 1, 1, 1, 2, 3}

// evaluate: campaign and diagnose jobs against uploaded Table I plans.
func buildEvaluate(seed int64) (*inputs, error) {
	in := &inputs{rng: rand.New(rand.NewSource(seedFor(seed, 2)))}
	tab, err := tableI("5x5", "10x10", "15x15", "20x20")
	if err != nil {
		return nil, err
	}
	for _, a := range tab {
		p, err := fpva.Generate(context.Background(), a)
		if err != nil {
			return nil, err
		}
		raw, err := encodePlan(p)
		if err != nil {
			return nil, err
		}
		// Zero the generation timings so one seed uploads identical bytes.
		wire, err := canonicalPlan(raw)
		if err != nil {
			return nil, err
		}
		dp, err := fpva.DecodePlan(bytes.NewReader(wire))
		if err != nil {
			return nil, err
		}
		sim, err := dp.Array().NewSimulator()
		if err != nil {
			return nil, err
		}
		in.plans = append(in.plans, planInput{p: dp, wire: wire, sim: sim})
		// Set-up compiles each plan's diagnosis signature table once, as
		// a lab diagnosing many chips of one design would.
		body, err := submitBody("diagnose", "plan", wire, "diagnose", diagnoseParams{Observations: []observation{}})
		if err != nil {
			return nil, err
		}
		in.prime = append(in.prime, &request{class: classDiagnose, key: len(in.plans) - 1, body: body})
	}
	in.draw = func(in *inputs) (*request, error) {
		key := evaluateMix[in.rng.Intn(len(evaluateMix))]
		pl := in.plans[key]
		if in.rng.Intn(2) == 0 {
			cp := campaignParams{Trials: 100 + in.rng.Intn(201), Faults: 1 + in.rng.Intn(5), Seed: 1 + in.rng.Int63n(1<<62)}
			body, err := submitBody("campaign", "plan", pl.wire, "campaign", cp)
			return &request{class: classCampaign, key: key, body: body, camp: cp}, err
		}
		obs, err := hiddenFaultObservations(in.rng, pl.p, pl.sim)
		if err != nil {
			return nil, err
		}
		wobs := make([]observation, len(obs))
		for i, o := range obs {
			wobs[i] = observation{Vector: o.Vector, Readings: o.Readings}
		}
		body, err := submitBody("diagnose", "plan", pl.wire, "diagnose", diagnoseParams{Observations: wobs})
		return &request{class: classDiagnose, key: key, body: body, obs: obs}, err
	}
	return in, nil
}

// timingFields are the plan statistics that measure a solve rather than
// describe its vectors.
var timingFields = []string{"tp_ns", "tc_ns", "tl_ns", "t_ns", "solver_wall_ns"}

// canonicalPlan re-encodes a plan with its timing statistics zeroed, so
// two solves of one array compare byte for byte.
func canonicalPlan(wire []byte) ([]byte, error) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(wire, &env); err != nil {
		return nil, fmt.Errorf("plan envelope: %w", err)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(env["stats"], &stats); err != nil {
		return nil, fmt.Errorf("plan stats: %w", err)
	}
	for _, f := range timingFields {
		delete(stats, f)
	}
	var err error
	if env["stats"], err = json.Marshal(stats); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	p, err := fpva.DecodePlan(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return encodePlan(p)
}
