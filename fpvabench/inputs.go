package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/fpva"
)

// arraySpace bounds the random arrays one workload draws: side lengths,
// and how many transportation channels and obstacles to place. Ports are
// the standard corners.
type arraySpace struct {
	minSide, maxSide int
	maxChannels      int
	maxObstacles     int
}

// arrayGen draws distinct arrays from a seeded source. A draw is
// rejected only when fpva.NewArray refuses its layout or when it repeats
// an earlier array; solve time and escapes play no part.
type arrayGen struct {
	rng   *rand.Rand
	space arraySpace
	seen  map[string]bool
}

func newArrayGen(seed int64, space arraySpace) *arrayGen {
	return &arrayGen{rng: rand.New(rand.NewSource(seed)), space: space, seen: map[string]bool{}}
}

// maxRejects bounds consecutive rejected draws, so an exhausted space
// fails loudly instead of looping.
const maxRejects = 100000

// next returns the next distinct array and its v1 wire encoding.
func (g *arrayGen) next() (*fpva.Array, []byte, error) {
	for tries := 0; tries < maxRejects; tries++ {
		a, err := g.draw()
		if err != nil {
			continue
		}
		wire, err := encodeArray(a)
		if err != nil {
			return nil, nil, err
		}
		if g.seen[string(wire)] {
			continue
		}
		g.seen[string(wire)] = true
		return a, wire, nil
	}
	return nil, nil, fmt.Errorf("no new valid array after %d draws", maxRejects)
}

// mark records an array drawn elsewhere (a Table I case) as seen.
func (g *arrayGen) mark(wire []byte) { g.seen[string(wire)] = true }

func (g *arrayGen) draw() (*fpva.Array, error) {
	s, rng := g.space, g.rng
	rows := s.minSide + rng.Intn(s.maxSide-s.minSide+1)
	cols := s.minSide + rng.Intn(s.maxSide-s.minSide+1)
	nch, nob := rng.Intn(s.maxChannels+1), rng.Intn(s.maxObstacles+1)
	var opts []fpva.ArrayOption
	for i := 0; i < nch; i++ {
		if rng.Intn(2) == 0 {
			r, c0 := rng.Intn(rows), rng.Intn(cols-1)
			opts = append(opts, fpva.WithChannelH(r, c0, c0+1+rng.Intn(cols-1-c0)))
		} else {
			c, r0 := rng.Intn(cols), rng.Intn(rows-1)
			opts = append(opts, fpva.WithChannelV(c, r0, r0+1+rng.Intn(rows-1-r0)))
		}
	}
	for i := 0; i < nob; i++ {
		opts = append(opts, fpva.WithObstacle(rng.Intn(rows), rng.Intn(cols)))
	}
	return fpva.NewArray(rows, cols, opts...)
}

func encodeArray(a *fpva.Array) ([]byte, error) {
	var buf bytes.Buffer
	if err := fpva.EncodeArray(&buf, a); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodePlan(p *fpva.Plan) ([]byte, error) {
	var buf bytes.Buffer
	if err := fpva.EncodePlan(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tableI returns the paper's Table I arrays named in names, in order.
func tableI(names ...string) ([]*fpva.Array, error) {
	out := make([]*fpva.Array, len(names))
	for i, n := range names {
		a, err := fpva.BenchmarkArray(n)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// exactEngines are the generation parameters of generate-exact: the
// paper's ILP engines for both flow paths and cuts.
var exactEngines = &genParams{PathEngine: "ilp-iterative", CutEngine: "ilp"}

// options maps the parameters onto the library's options. The engine
// names are constants of this package that the daemon parses with the
// same functions, so a parse error cannot occur.
func (p *genParams) options() []fpva.GenOption {
	if p == nil {
		return nil
	}
	var opts []fpva.GenOption
	if p.PathEngine != "" {
		e, _ := fpva.ParsePathEngine(p.PathEngine)
		opts = append(opts, fpva.WithPathEngine(e))
	}
	if p.CutEngine != "" {
		e, _ := fpva.ParseCutEngine(p.CutEngine)
		opts = append(opts, fpva.WithCutEngine(e))
	}
	return opts
}

// genParams, campaignParams, diagnoseParams and observation are the parts
// of the fpvad job API the benchmark sends, declared here because a
// client outside cmd/ cannot import the daemon's api package.
type genParams struct {
	PathEngine string `json:"pathEngine,omitempty"`
	CutEngine  string `json:"cutEngine,omitempty"`
}

type campaignParams struct {
	Trials int   `json:"trials"`
	Faults int   `json:"faults"`
	Seed   int64 `json:"seed"`
}

type diagnoseParams struct {
	Observations []observation `json:"observations"`
}

type observation struct {
	Vector   int    `json:"vector"`
	Readings []bool `json:"readings"`
}

// submitBody builds a POST /v1/jobs payload. payload is an array or a
// plan in the v1 wire format and is spliced in verbatim: re-marshalling a
// 426 KB plan per request would put client CPU into the timed phase.
func submitBody(kind, payloadField string, payload []byte, paramsField string, params any) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"kind":%q,%q:`, kind, payloadField)
	buf.Write(bytes.TrimSpace(payload))
	if params != nil {
		p, err := json.Marshal(params)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, ",%q:", paramsField)
		buf.Write(p)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// hiddenFaultObservations simulates a chip with one seeded stuck-at fault
// and returns the readings of the plan's first k vectors, as a technician
// who applied at least half the test set would report them. Below half,
// the candidate set of a 20x20 plan is so large that a few diagnoses run
// ten times longer than the rest, and the p99 would only count them.
func hiddenFaultObservations(rng *rand.Rand, p *fpva.Plan, sim *fpva.Simulator) ([]fpva.Observation, error) {
	a := p.Array()
	valves := a.Valves()
	kind := fpva.StuckAt0
	if rng.Intn(2) == 1 {
		kind = fpva.StuckAt1
	}
	hidden := []fpva.Fault{{Kind: kind, A: valves[rng.Intn(len(valves))]}}
	infos := p.Vectors()
	k := (len(infos)+1)/2 + rng.Intn(len(infos)/2+1)
	obs := make([]fpva.Observation, k)
	for i := 0; i < k; i++ {
		vec := a.NewVector(infos[i].Name)
		for _, e := range infos[i].Open {
			if err := vec.SetOpen(e, true); err != nil {
				return nil, err
			}
		}
		r, err := sim.Readings(vec, hidden)
		if err != nil {
			return nil, err
		}
		obs[i] = fpva.Observation{Vector: i, Readings: r}
	}
	return obs, nil
}
