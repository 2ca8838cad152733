// Package leakage generates test vectors for control-layer leakage
// (Sec. II and the nl column of Table I): a manufacturing defect that
// couples two control channels, so that pressurizing either channel closes
// both valves.
//
// Control-routing model. The paper does not publish the control routing of
// its arrays, so this package uses the standard multiplexed raster routing:
// every Normal valve owns a control channel routed to the chip edge next to
// the channels of its lattice neighbours of the same orientation. Leakage
// candidates are therefore pairs of same-orientation neighbouring valves —
// the pairs whose control channels run side by side.
//
// Detection. A leakage pair (a, b) is observable under a vector where one
// valve is commanded closed while the other sits open on a pressurized
// source-to-sink path: the leak then closes the observed valve too, and the
// sink goes dark. One simple path tests many pairs at once (every candidate
// pair with exactly one member on the path), so a handful of vectors covers
// all pairs — matching the small nl values of Table I.
package leakage

import (
	"context"
	"fmt"

	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/sim"
)

// Pair is a leakage candidate: two valves whose control channels are
// routed adjacently. Order is normalized with A < B.
type Pair [2]grid.ValveID

// Pairs enumerates the leakage candidates of the array under the raster
// control-routing model: consecutive same-orientation valves along the
// routing direction (H-valve control channels run along their row, V-valve
// channels along their column), both Normal. These are the pairs whose
// control channels share a wall over a long run — the defect site of
// Fig. 3(d).
func Pairs(a *grid.Array) []Pair {
	var out []Pair
	addIfNormal := func(x, y grid.ValveID) {
		if x == grid.NoValve || y == grid.NoValve {
			return
		}
		if a.Kind(x) != grid.Normal || a.Kind(y) != grid.Normal {
			return
		}
		if x > y {
			x, y = y, x
		}
		out = append(out, Pair{x, y})
	}
	for r := 0; r < a.NR(); r++ {
		for c := 0; c <= a.NC(); c++ {
			addIfNormal(a.HValve(r, c), a.HValve(r, c+1))
		}
	}
	for r := 0; r <= a.NR(); r++ {
		for c := 0; c < a.NC(); c++ {
			addIfNormal(a.VValve(r, c), a.VValve(r+1, c))
		}
	}
	return out
}

// Result is the outcome of leakage-vector generation.
type Result struct {
	Vectors []*sim.Vector
	Pairs   []Pair
	// Uncovered lists candidate pairs no vector could observe.
	Uncovered []Pair
}

// Covers reports whether the vector observes pair p: the leak must change
// some sink reading. That happens exactly when one member is commanded
// open and the other closed (the leak then closes the open one, and
// nothing else) and closing that open member alone changes a reading.
func Covers(s *sim.Simulator, vec *sim.Vector, p Pair) bool {
	closeDet, openDet := make([]uint64, s.FlipWords()), make([]uint64, s.FlipWords())
	s.SingleFlipsInto(vec, closeDet, openDet)
	return observes(s.Array(), vec, closeDet, p)
}

// observes is Covers over the vector's precomputed single-flip closure
// table. Like the simulator's fault model, a leak touching a valve that is
// not Normal has no effect.
func observes(a *grid.Array, vec *sim.Vector, closeDet []uint64, p Pair) bool {
	if a.Kind(p[0]) != grid.Normal || a.Kind(p[1]) != grid.Normal {
		return false
	}
	switch open0, open1 := vec.Open(p[0]), vec.Open(p[1]); {
	case open0 && !open1:
		return sim.Flipped(closeDet, p[0])
	case open1 && !open0:
		return sim.Flipped(closeDet, p[1])
	}
	return false
}

// Generate builds dedicated leakage vectors covering every candidate pair.
// Existing vectors (typically the flow-path set) may be passed in; pairs
// they already observe are skipped, which is how the paper's combined test
// flow keeps nl small. Cancelling ctx (nil means context.Background())
// aborts between vectors and returns ctx.Err().
//
// Coverage is read off one single-flip kernel pass per vector
// (sim.SingleFlipsInto): a pair is observed iff exactly one member is open
// and closing it alone changes a reading, so every candidate pair costs a
// table lookup, not a simulation. One routing graph is shared by every
// per-pair fallback query.
func Generate(ctx context.Context, a *grid.Array, existing []*sim.Vector) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	s, err := sim.New(a)
	if err != nil {
		return nil, err
	}
	res := &Result{Pairs: Pairs(a)}
	uncovered := make(map[Pair]bool, len(res.Pairs))
	for _, p := range res.Pairs {
		uncovered[p] = true
	}
	// covered collects the still-uncovered pairs a vector observes.
	// Scanning res.Pairs (filtered through the uncovered set) rather than
	// the set itself keeps the order — and with it every tie-break
	// downstream — independent of map iteration.
	closeDet, openDet := make([]uint64, s.FlipWords()), make([]uint64, s.FlipWords())
	var covered []Pair
	sweep := func(vec *sim.Vector) []Pair {
		s.SingleFlipsInto(vec, closeDet, openDet)
		covered = covered[:0]
		for _, p := range res.Pairs {
			if uncovered[p] && observes(a, vec, closeDet, p) {
				covered = append(covered, p)
			}
		}
		return covered
	}
	for _, vec := range existing {
		for _, p := range sweep(vec) {
			delete(uncovered, p)
		}
	}
	// Comb vectors: a path zigzagging between two adjacent rows alternates
	// the rows of its horizontal valves, so every in-lane pair of those two
	// rows (and every vertical pair touching the lower row) has exactly one
	// member on the path. ceil(nr/2) combs split almost all pairs; the
	// per-pair loop below mops up the remainder (lead-in columns, pairs
	// displaced by obstacles or channels).
	for _, comb := range combPaths(a) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vec := comb.Vector(a, "leak")
		vec.Kind = sim.Leakage
		if len(sweep(vec)) == 0 {
			continue
		}
		vec.Name = fmt.Sprintf("leak%d", len(res.Vectors))
		res.Vectors = append(res.Vectors, vec)
		for _, p := range covered {
			delete(uncovered, p)
		}
	}
	rt := flowpath.NewRouter(a)
	for len(uncovered) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target := minPair(uncovered)
		vec := vectorFor(a, s, rt, target, len(res.Vectors)+1)
		if vec == nil {
			res.Uncovered = append(res.Uncovered, target)
			delete(uncovered, target)
			continue
		}
		vec.Name = fmt.Sprintf("leak%d", len(res.Vectors))
		res.Vectors = append(res.Vectors, vec)
		for _, p := range sweep(vec) {
			delete(uncovered, p)
		}
	}
	return res, nil
}

// vectorFor builds one vector observing the pair: a path through one member
// avoiding the other (tried in both directions, with a few jittered
// reroutes — wiggly paths alternate orientation often and so split many
// other lane pairs at the same time).
func vectorFor(a *grid.Array, s *sim.Simulator, rt *flowpath.Router, p Pair, round int) *sim.Vector {
	banned := make(map[grid.ValveID]bool, 1)
	for jitter := round; jitter < round+3; jitter++ {
		for _, ends := range [][2]grid.ValveID{{p[0], p[1]}, {p[1], p[0]}} {
			observe, actuate := ends[0], ends[1]
			clear(banned)
			banned[actuate] = true
			path := rt.ThroughAvoidingJitter(observe, banned, jitter)
			if path == nil {
				continue
			}
			vec := path.Vector(a, "leak")
			vec.Kind = sim.Leakage
			if Covers(s, vec, p) {
				return vec
			}
		}
	}
	return nil
}

// combPaths builds the two-row zigzag paths: lead-in down column 0, comb
// across rows (r, r+1), lead-out down the last column to the sink. Combs
// that collide with obstacles or non-corner ports are skipped (the
// per-pair fallback covers their pairs).
func combPaths(a *grid.Array) []*flowpath.Path {
	srcs, sinks := a.Sources(), a.Sinks()
	if len(srcs) == 0 || len(sinks) == 0 {
		return nil
	}
	srcCell := a.InteriorCell(srcs[0].Valve)
	sinkCell := a.InteriorCell(sinks[0].Valve)
	sr, sc := a.CellCoords(srcCell)
	tr, tc := a.CellCoords(sinkCell)
	nr, nc := a.NR(), a.NC()
	if sr != 0 || sc != 0 || tr != nr-1 || tc != nc-1 || nr < 2 {
		return nil // comb geometry assumes the standard corner ports
	}
	rows := []int{}
	for r := 0; r+1 < nr; r += 2 {
		rows = append(rows, r)
	}
	if len(rows) == 0 || rows[len(rows)-1]+1 < nr-1 {
		rows = append(rows, nr-2)
	}
	var out []*flowpath.Path
	for _, r := range rows {
		cells := make([]grid.CellID, 0, 2*nc+nr)
		for i := 0; i < r; i++ {
			cells = append(cells, a.CellIndex(i, 0))
		}
		// Zigzag phase: the comb must leave the last column on row r+1 so
		// the lead-out can descend. With nc odd a full zigzag from column 0
		// does; with nc even the first down-move is skipped.
		enter := r
		for c := 0; c < nc; c++ {
			if c == 0 && nc%2 == 0 {
				cells = append(cells, a.CellIndex(r, 0))
				continue
			}
			cells = append(cells, a.CellIndex(enter, c), a.CellIndex(r+r+1-enter, c))
			enter = r + r + 1 - enter
		}
		for i := r + 2; i < nr; i++ {
			cells = append(cells, a.CellIndex(i, nc-1))
		}
		p, err := flowpath.Build(a, srcs[0].Valve, sinks[0].Valve, cells)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

func minPair(set map[Pair]bool) Pair {
	var best Pair
	first := true
	for p := range set {
		//lint:ignore fpva/detorder a minimum fold visits every key; the result is order-independent
		if first || less(p, best) {
			best = p
			first = false
		}
	}
	return best
}

func less(a, b Pair) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
