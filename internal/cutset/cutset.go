// Package cutset generates the cut-set test vectors of the paper
// (Sec. III-C): sets of valves that completely separate the pressure source
// from the pressure meters. Closing a cut-set and opening every other valve
// must leave all meters dark; if a meter still sees pressure, some valve in
// the cut is stuck-at-1.
//
// Geometry. In a planar valve array, a minimal source/sink-separating valve
// set is exactly a simple path in the planar dual between the two arcs into
// which the source and sink ports split the chip boundary — this is the
// formal version of the paper's observation that "an end of a cut-set must
// touch an edge of the chip" and of the two-direction boundary search of
// Fig. 7(d). The package builds that dual graph explicitly:
//
//   - dual nodes are the interior lattice corners, plus two terminal nodes
//     for the boundary arcs;
//   - every valve is a dual edge between the corners on its two sides;
//     Walls cost nothing (obstacle perimeters are free cut members, which
//     is how cuts thread through obstacle areas), Channel edges cannot be
//     closed and are excluded.
//
// Generators:
//
//   - line cuts: straight row/column cuts, optimal for (near-)full arrays —
//     an n x n array with corner ports needs exactly 2n-2 of them, which is
//     the nc column of Table I;
//   - dual-path cuts: Dijkstra in the dual, forced through a target valve,
//     biased toward still-uncovered valves — used to patch around channels
//     and obstacles;
//   - an ILP over the dual graph, the paper's "complementary problem of
//     finding a set of flow paths" (Sec. III-C), for small arrays.
//
// Constraint (9) — the two-fault anti-masking rule — is applied as a repair
// pass: whenever both side-faces of a valve lie on a cut's dual path but the
// valve itself is absent, the valve is added to the cut.
package cutset

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/sim"
)

// Cut is one cut-set: the Normal valves commanded closed, plus the Wall
// edges the separating curve threads through (free members, already closed
// by construction).
type Cut struct {
	Valves []grid.ValveID
	Walls  []grid.ValveID
}

// Vector converts the cut to a test vector: cut members closed, every other
// Normal valve open.
func (c *Cut) Vector(a *grid.Array, name string) *sim.Vector {
	v := sim.NewVector(a, sim.CutSet, name)
	cutVectorInto(a, c, v)
	return v
}

// Result is the outcome of cut-set generation.
type Result struct {
	Cuts []*Cut
	// Uncovered lists Normal valves no valid cut could test.
	Uncovered []grid.ValveID
	// ILP summarizes the solver work behind EngineILP (zero otherwise). A
	// non-zero NonOptimal count means some cuts came from early-stopped
	// solves and are feasible but not proven optimal — callers should
	// surface a warning.
	ILP ilp.Stats
}

// Vectors converts all cuts to test vectors named cut0, cut1, ...
func (r *Result) Vectors(a *grid.Array) []*sim.Vector {
	out := make([]*sim.Vector, len(r.Cuts))
	for i, c := range r.Cuts {
		out[i] = c.Vector(a, fmt.Sprintf("cut%d", i))
	}
	return out
}

// dual is the planar dual of the array with the outer face split at the
// source and sink ports.
type dual struct {
	a    *grid.Array
	g    *graph.Graph
	A, B int // terminal nodes (the two boundary arcs)

	cutM *cutILPModel // lazily built shared ILP model (EngineILP)
	sc   *graph.DijkstraScratch
}

// cornerIndex maps lattice corner (i, j), 0<=i<=nr, 0<=j<=nc.
func cornerIndex(a *grid.Array, i, j int) int { return i*(a.NC()+1) + j }

// buildDual constructs the dual graph. It uses the first source and first
// sink port to split the boundary; cuts are validated against all ports
// afterwards.
func buildDual(a *grid.Array) (*dual, error) {
	srcs, sinks := a.Sources(), a.Sinks()
	if len(srcs) == 0 || len(sinks) == 0 {
		return nil, fmt.Errorf("cutset: array needs a source and a sink")
	}
	nr, nc := a.NR(), a.NC()
	// Clockwise corner cycle starting at (0,0).
	type corner struct{ i, j int }
	var cycle []corner
	for j := 0; j <= nc; j++ {
		cycle = append(cycle, corner{0, j})
	}
	for i := 1; i <= nr; i++ {
		cycle = append(cycle, corner{i, nc})
	}
	for j := nc - 1; j >= 0; j-- {
		cycle = append(cycle, corner{nr, j})
	}
	for i := nr - 1; i >= 1; i-- {
		cycle = append(cycle, corner{i, 0})
	}
	// Boundary edges sit between consecutive cycle corners; find the gap
	// index of a port edge (the gap after position k joins cycle[k] and
	// cycle[k+1]).
	gapOf := func(e grid.ValveID) (int, error) {
		c1, c2 := valveCorners(a, e)
		for k := range cycle {
			n1 := cornerIndex(a, cycle[k].i, cycle[k].j)
			n2 := cornerIndex(a, cycle[(k+1)%len(cycle)].i, cycle[(k+1)%len(cycle)].j)
			if (n1 == c1 && n2 == c2) || (n1 == c2 && n2 == c1) {
				return k, nil
			}
		}
		return 0, fmt.Errorf("cutset: port edge %d not on boundary cycle", e)
	}
	gs, err := gapOf(srcs[0].Valve)
	if err != nil {
		return nil, err
	}
	gt, err := gapOf(sinks[0].Valve)
	if err != nil {
		return nil, err
	}
	if gs == gt {
		return nil, fmt.Errorf("cutset: source and sink share a boundary gap")
	}
	// Gap k lies between cycle positions k and k+1. Walking forward from
	// gap gs to gap gt visits the corners of arc A; the remaining boundary
	// corners form arc B.
	arcA := make(map[int]bool)
	for p := (gs + 1) % len(cycle); ; p = (p + 1) % len(cycle) {
		arcA[cornerIndex(a, cycle[p].i, cycle[p].j)] = true
		if p == gt {
			break
		}
	}
	nCorners := (nr + 1) * (nc + 1)
	g := graph.New(nCorners + 2)
	A, B := nCorners, nCorners+1
	mapped := func(ci int) int {
		i, j := ci/(nc+1), ci%(nc+1)
		if i == 0 || i == nr || j == 0 || j == nc {
			if arcA[ci] {
				return A
			}
			return B
		}
		return ci
	}
	for id := 0; id < a.NumValves(); id++ {
		vid := grid.ValveID(id)
		switch a.Kind(vid) {
		case grid.Channel, grid.PortOpen:
			continue // cannot be closed / splits the outer face
		}
		c1, c2 := valveCorners(a, vid)
		u, w := mapped(c1), mapped(c2)
		if u == w {
			continue // boundary wall along a single arc
		}
		g.AddEdge(u, w, id)
	}
	return &dual{a: a, g: g, A: A, B: B}, nil
}

// valveCorners returns the corner indices on the two sides of a valve.
func valveCorners(a *grid.Array, e grid.ValveID) (int, int) {
	v := a.Valve(e)
	if v.Orient == grid.Horizontal {
		return cornerIndex(a, v.R, v.C), cornerIndex(a, v.R+1, v.C)
	}
	return cornerIndex(a, v.R, v.C), cornerIndex(a, v.R, v.C+1)
}

// cutFromDualEdges assembles a Cut from dual edge indices.
func (d *dual) cutFromDualEdges(edges []int) *Cut {
	cut := &Cut{}
	for _, eid := range edges {
		vid := grid.ValveID(d.g.EdgeAt(eid).Label)
		if d.a.Kind(vid) == grid.Normal {
			cut.Valves = append(cut.Valves, vid)
		} else {
			cut.Walls = append(cut.Walls, vid)
		}
	}
	sort.Slice(cut.Valves, func(i, j int) bool { return cut.Valves[i] < cut.Valves[j] })
	sort.Slice(cut.Walls, func(i, j int) bool { return cut.Walls[i] < cut.Walls[j] })
	return cut
}

// dualWeight returns the Dijkstra weight of dual edge e given the coverage
// state: free for walls, cheap for uncovered valves, 1 for covered ones.
// jitter > 0 perturbs the weights deterministically, yielding alternative
// curves when the cheapest one is rejected.
func (d *dual) dualWeight(uncovered map[grid.ValveID]bool, jitter int) func(e int) float64 {
	return func(e int) float64 {
		vid := grid.ValveID(d.g.EdgeAt(e).Label)
		var base float64
		switch d.a.Kind(vid) {
		case grid.Wall:
			base = 0.001
		case grid.Normal:
			base = 1
			if uncovered[vid] {
				base = 0.02 // nearly free: batch many untested valves per cut
			}
		default:
			return math.Inf(1)
		}
		if jitter > 0 {
			base *= 1 + 0.8*float64((e*2654435761+jitter*40503)%97)/97
		}
		return base
	}
}

// cutThrough builds a minimal cut forced through the target valve: two
// node-disjoint dual segments A->side1 and side2->B around the target's
// dual edge. Returns nil if no such cut exists (e.g. the valve is inside a
// channel region that cannot be separated).
func (d *dual) cutThrough(target grid.ValveID, uncovered map[grid.ValveID]bool) *Cut {
	return d.cutThroughJittered(target, uncovered, 0)
}

// cutThroughJittered is cutThrough under a deterministic weight
// perturbation; the generator retries with increasing jitter when the
// cheapest curve is rejected (e.g. the constraint-(9) repair sealed the
// target in).
func (d *dual) cutThroughJittered(target grid.ValveID, uncovered map[grid.ValveID]bool, jitter int) *Cut {
	return d.cutThroughBanned(target, uncovered, jitter, nil)
}

// cutThroughBanned additionally forbids the curve from visiting the given
// dual corners. The generator uses it to steer away from U-turn curves
// whose constraint-(9) repair would seal the target valve in.
func (d *dual) cutThroughBanned(target grid.ValveID, uncovered map[grid.ValveID]bool,
	jitter int, bannedCorners map[int]bool) *Cut {
	var targetEdge = -1
	for i, e := range d.g.Edges() {
		if grid.ValveID(e.Label) == target {
			targetEdge = i
			break
		}
	}
	if targetEdge == -1 {
		return nil
	}
	te := d.g.EdgeAt(targetEdge)
	w := d.dualWeight(uncovered, jitter)
	for _, ends := range [][2]int{{te.U, te.V}, {te.V, te.U}} {
		first, second := ends[0], ends[1]
		// The A-side segment must not thread through terminal B, or the
		// "curve" degenerates into a complete cut plus a dangling loop.
		avoid1 := map[int]bool{}
		for n := range bannedCorners {
			avoid1[n] = true
		}
		if first != d.B {
			avoid1[d.B] = true
		}
		seg1 := d.segment(d.A, first, second, avoid1, w)
		if seg1 == nil {
			continue
		}
		// seg2 must stay clear of every corner the curve already visits,
		// or the curve self-intersects and stops being a minimal cut.
		avoid := nodesOf(d.g, d.A, seg1)
		if avoid[second] {
			continue
		}
		for n := range bannedCorners {
			avoid[n] = true
		}
		seg2 := d.segment(second, d.B, -1, avoid, w)
		if seg2 == nil {
			continue
		}
		edges := append(append(append([]int{}, seg1...), targetEdge), seg2...)
		return d.cutFromDualEdges(edges)
	}
	return nil
}

// segment runs Dijkstra src->dst avoiding the banned node and the avoid
// set; it returns dual edge indices. The Dijkstra scratch is owned by the
// dual and shared across the whole generation run.
func (d *dual) segment(src, dst, banned int, avoid map[int]bool, weight func(int) float64) []int {
	if src == dst {
		return []int{}
	}
	wf := func(e int) float64 {
		ed := d.g.EdgeAt(e)
		for _, n := range []int{ed.U, ed.V} {
			if n == banned && n != dst && n != src {
				return math.Inf(1)
			}
			if avoid != nil && avoid[n] && n != src {
				return math.Inf(1)
			}
		}
		return weight(e)
	}
	if d.sc == nil {
		d.sc = d.g.NewDijkstraScratch()
	}
	return d.g.DijkstraPathEdgesInto(d.sc, src, dst, wf, nil)
}

// nodesOf collects the nodes a dual edge sequence visits, starting at src.
func nodesOf(g *graph.Graph, src int, edges []int) map[int]bool {
	nodes := map[int]bool{src: true}
	cur := src
	for _, eid := range edges {
		e := g.EdgeAt(eid)
		if e.U == cur {
			cur = e.V
		} else {
			cur = e.U
		}
		nodes[cur] = true
	}
	return nodes
}

// ThroughBuilder returns a generator of single-valve cuts sharing one dual
// graph: each call yields a minimal cut containing the given valve (nil if
// none exists). The Sec. IV baseline uses it to build its one-valve-at-a-
// time stuck-at-1 tests.
func ThroughBuilder(a *grid.Array) (func(grid.ValveID) *Cut, error) {
	d, err := buildDual(a)
	if err != nil {
		return nil, err
	}
	return func(target grid.ValveID) *Cut {
		return d.cutThrough(target, map[grid.ValveID]bool{target: true})
	}, nil
}
