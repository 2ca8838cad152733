// Package flowpath generates the flow-path test vectors of the paper
// (Sec. III-B): simple source-to-sink paths, without loops or branches,
// whose union covers every Normal valve of the array. Each path yields one
// test vector (path valves open, everything else closed) that detects
// stuck-at-0 faults on the path.
//
// Three engines are provided:
//
//   - Serpentine: a combinatorial strip-decomposition generator. It is the
//     "vector-based path generation model" the paper's Sec. IV sketches as
//     the scalable alternative to the ILP, and it is exact on obstacle-free
//     arrays. With obstacles, strips detour around them and a patching pass
//     (Dijkstra-guided forced-through paths) covers whatever the strips
//     missed.
//   - ILPIterative: the paper's ILP model (constraints (1), (3), (4) plus
//     port-terminal handling), solved one path at a time maximizing newly
//     covered valves — a set-cover column generation over the exact
//     per-path feasibility model.
//   - ILPMonolithic: the literal multi-path model (1)-(8) minimizing the
//     number of used paths; exponential in practice, intended for small
//     arrays and for validating the other engines.
package flowpath

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/sim"
)

// Path is a simple flow path: an ordered cell sequence from the cell behind
// a source port to the cell behind a sink port, together with the traversed
// edges (including the two port edges).
type Path struct {
	// Cells is the visited cell sequence, all distinct.
	Cells []grid.CellID
	// Valves holds the traversed edges: source port edge, the internal
	// edges between consecutive cells, then the sink port edge.
	Valves []grid.ValveID
}

// Build assembles a Path from a cell sequence plus the port edges at both
// ends, validating simplicity and adjacency.
func Build(a *grid.Array, srcPort, sinkPort grid.ValveID, cells []grid.CellID) (*Path, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("flowpath: empty cell sequence")
	}
	if a.Kind(srcPort) != grid.PortOpen || a.Kind(sinkPort) != grid.PortOpen {
		return nil, fmt.Errorf("flowpath: endpoints must be port edges")
	}
	if a.InteriorCell(srcPort) != cells[0] {
		return nil, fmt.Errorf("flowpath: path starts at cell %d, source port opens into %d",
			cells[0], a.InteriorCell(srcPort))
	}
	if a.InteriorCell(sinkPort) != cells[len(cells)-1] {
		return nil, fmt.Errorf("flowpath: path ends at cell %d, sink port opens into %d",
			cells[len(cells)-1], a.InteriorCell(sinkPort))
	}
	seen := make(map[grid.CellID]bool, len(cells))
	valves := make([]grid.ValveID, 0, len(cells)+1)
	valves = append(valves, srcPort)
	for i, cell := range cells {
		if seen[cell] {
			return nil, fmt.Errorf("flowpath: cell %d visited twice", cell)
		}
		seen[cell] = true
		r, c := a.CellCoords(cell)
		if a.IsObstacle(r, c) {
			return nil, fmt.Errorf("flowpath: path crosses obstacle cell (%d,%d)", r, c)
		}
		if i == 0 {
			continue
		}
		pr, pc := a.CellCoords(cells[i-1])
		e := a.EdgeBetween(pr, pc, r, c)
		if e == grid.NoValve {
			return nil, fmt.Errorf("flowpath: cells (%d,%d) and (%d,%d) not adjacent", pr, pc, r, c)
		}
		if !a.Passable(e) {
			return nil, fmt.Errorf("flowpath: edge %d between (%d,%d)-(%d,%d) is a wall", e, pr, pc, r, c)
		}
		valves = append(valves, e)
	}
	valves = append(valves, sinkPort)
	return &Path{Cells: cells, Valves: valves}, nil
}

// Vector converts the path to a test vector: every Normal valve on the path
// is commanded open, everything else closed.
func (p *Path) Vector(a *grid.Array, name string) *sim.Vector {
	v := sim.NewVector(a, sim.FlowPath, name)
	for _, id := range p.Valves {
		if a.Kind(id) == grid.Normal {
			v.SetOpen(id, true)
		}
	}
	return v
}

// CoveredNormal returns the Normal valves the path covers (tests for
// stuck-at-0), in traversal order.
func (p *Path) CoveredNormal(a *grid.Array) []grid.ValveID {
	var out []grid.ValveID
	for _, id := range p.Valves {
		if a.Kind(id) == grid.Normal {
			out = append(out, id)
		}
	}
	return out
}

// Len returns the number of cells on the path.
func (p *Path) Len() int { return len(p.Cells) }

// TestedNormal returns the path's Normal valves whose stuck-at-0 fault the
// path's vector actually exposes, in traversal order. Membership alone is
// not enough: an always-open Channel edge touching the path in two places
// can carry pressure around a broken valve — the paper's Fig. 5(a)
// interference — so every valve is checked against the fault simulator,
// all of them in one single-flip pass: a stuck-at-0 on an open path valve
// is exactly closing it alone.
func (p *Path) TestedNormal(a *grid.Array, s *sim.Simulator) []grid.ValveID {
	closeDet, openDet := make([]uint64, s.FlipWords()), make([]uint64, s.FlipWords())
	s.SingleFlipsInto(p.Vector(a, "probe"), closeDet, openDet)
	var out []grid.ValveID
	for _, id := range p.CoveredNormal(a) {
		if sim.Flipped(closeDet, id) {
			out = append(out, id)
		}
	}
	return out
}

// Result is the outcome of flow-path generation.
type Result struct {
	Paths []*Path
	// Uncovered lists Normal valves no generated path covers. Empty on the
	// benchmark arrays; may be non-empty if obstacles isolate a valve.
	Uncovered []grid.ValveID
	// ILP summarizes the solver work behind the ILP engines (zero for the
	// serpentine engine). A non-zero NonOptimal count means some paths were
	// accepted from early-stopped solves and are feasible but not proven
	// optimal — callers should surface a warning.
	ILP ilp.Stats
}

// Vectors converts all paths to test vectors named path0, path1, ...
func (r *Result) Vectors(a *grid.Array) []*sim.Vector {
	out := make([]*sim.Vector, len(r.Paths))
	for i, p := range r.Paths {
		out[i] = p.Vector(a, fmt.Sprintf("path%d", i))
	}
	return out
}

// coverageSet computes the union of covered Normal valves of a path list.
func coverageSet(a *grid.Array, paths []*Path) map[grid.ValveID]bool {
	covered := make(map[grid.ValveID]bool)
	for _, p := range paths {
		for _, id := range p.CoveredNormal(a) {
			covered[id] = true
		}
	}
	return covered
}

// testedSet computes the union of simulator-verified tested valves.
func testedSet(a *grid.Array, s *sim.Simulator, paths []*Path) map[grid.ValveID]bool {
	tested := make(map[grid.ValveID]bool)
	for _, p := range paths {
		for _, id := range p.TestedNormal(a, s) {
			tested[id] = true
		}
	}
	return tested
}

// uncoveredAfter lists Normal valves whose stuck-at-0 fault no path vector
// exposes, ascending. With a nil simulator it falls back to membership
// coverage (used by the monolithic engine's structural check).
func uncoveredAfter(a *grid.Array, paths []*Path, s *sim.Simulator) []grid.ValveID {
	var tested map[grid.ValveID]bool
	if s != nil {
		tested = testedSet(a, s, paths)
	} else {
		tested = coverageSet(a, paths)
	}
	var out []grid.ValveID
	for _, id := range a.NormalValves() {
		if !tested[id] {
			out = append(out, id)
		}
	}
	return out
}
