package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ladder builds a 2 x k grid graph and returns it with the node indexer.
func ladder(k int) (*Graph, func(r, c int) int) {
	g := New(2 * k)
	at := func(r, c int) int { return r*k + c }
	for r := 0; r < 2; r++ {
		for c := 0; c+1 < k; c++ {
			g.AddEdge(at(r, c), at(r, c+1), -1)
		}
	}
	for c := 0; c < k; c++ {
		g.AddEdge(at(0, c), at(1, c), -1)
	}
	return g, at
}

func TestBFSAndPath(t *testing.T) {
	g, at := ladder(5)
	via := g.BFS(at(0, 0), nil)
	for n := 0; n < g.N(); n++ {
		if via[n] == -1 {
			t.Fatalf("node %d unreachable in connected graph", n)
		}
	}
	p := g.Path(at(0, 0), at(1, 4), nil)
	if len(p) != 6 { // shortest path has 5 edges
		t.Errorf("path len %d, want 6 nodes", len(p))
	}
	if p[0] != at(0, 0) || p[len(p)-1] != at(1, 4) {
		t.Errorf("path endpoints %d..%d", p[0], p[len(p)-1])
	}
	for i := 0; i+1 < len(p); i++ {
		found := false
		for _, a := range g.Adj(p[i]) {
			if a.To == p[i+1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("path step %d-%d is not an edge", p[i], p[i+1])
		}
	}
}

func TestPathEdgesMatchesPath(t *testing.T) {
	g, at := ladder(7)
	nodes := g.Path(at(0, 0), at(1, 6), nil)
	edges := g.PathEdges(at(0, 0), at(1, 6), nil)
	if len(edges) != len(nodes)-1 {
		t.Fatalf("edges %d vs nodes %d", len(edges), len(nodes))
	}
	for i, eid := range edges {
		e := g.EdgeAt(eid)
		if !(e.U == nodes[i] && e.V == nodes[i+1] || e.V == nodes[i] && e.U == nodes[i+1]) {
			t.Fatalf("edge %d does not join consecutive path nodes", eid)
		}
	}
}

func TestBFSFiltered(t *testing.T) {
	g, at := ladder(3)
	// Disable all vertical edges: rows become separate components.
	vertical := make(map[int]bool)
	for i, e := range g.Edges() {
		if (e.U < 3) != (e.V < 3) {
			vertical[i] = true
		}
	}
	enabled := func(e int) bool { return !vertical[e] }
	if g.Reachable(at(0, 0), at(1, 0), enabled) {
		t.Error("rows connected despite disabled rungs")
	}
	if !g.Reachable(at(0, 0), at(0, 2), enabled) {
		t.Error("top row should stay connected")
	}
	if g.Path(at(0, 0), at(1, 2), enabled) != nil {
		t.Error("Path across disabled edges should be nil")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, -1)
	g.AddEdge(1, 2, -1)
	g.AddEdge(3, 4, -1)
	comp, n := g.Components(nil)
	if n != 3 {
		t.Fatalf("components: %d, want 3", n)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] || comp[5] == comp[0] {
		t.Errorf("labels: %v", comp)
	}
}

func TestSelfLoopAndParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0, 7)
	g.AddEdge(0, 1, 8)
	g.AddEdge(0, 1, 9)
	if g.M() != 3 {
		t.Fatalf("M=%d", g.M())
	}
	if len(g.Adj(0)) != 3 { // self-loop appears once
		t.Errorf("adj(0)=%d arcs", len(g.Adj(0)))
	}
	if !g.Reachable(0, 1, nil) {
		t.Error("unreachable across parallel edges")
	}
}

func TestDijkstra(t *testing.T) {
	// Weighted triangle plus a shortcut: 0-1 (1), 1-2 (1), 0-2 (5).
	g := New(3)
	e01 := g.AddEdge(0, 1, -1)
	e12 := g.AddEdge(1, 2, -1)
	e02 := g.AddEdge(0, 2, -1)
	w := map[int]float64{e01: 1, e12: 1, e02: 5}
	dist, _ := g.Dijkstra(0, func(e int) float64 { return w[e] })
	if dist[2] != 2 {
		t.Errorf("dist[2]=%v, want 2", dist[2])
	}
	edges := g.DijkstraPathEdges(0, 2, func(e int) float64 { return w[e] })
	if len(edges) != 2 || edges[0] != e01 || edges[1] != e12 {
		t.Errorf("path edges %v", edges)
	}
	// Disabled edge via +Inf.
	w[e12] = math.Inf(1)
	dist, _ = g.Dijkstra(0, func(e int) float64 { return w[e] })
	if dist[2] != 5 {
		t.Errorf("dist[2]=%v with e12 disabled, want 5", dist[2])
	}
	if p := g.DijkstraPathEdges(1, 2, func(e int) float64 { return math.Inf(1) }); p != nil {
		t.Errorf("all-disabled path: %v, want nil", p)
	}
}

func TestDijkstraAgreesWithBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 15
		g := New(n)
		for i := 0; i < 30; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), -1)
		}
		dist, _ := g.Dijkstra(0, func(int) float64 { return 1 })
		via := g.BFS(0, nil)
		for v := 0; v < n; v++ {
			bfsDepth := -1
			if via[v] != -1 {
				bfsDepth = len(g.PathEdges(0, v, nil))
			}
			switch {
			case bfsDepth == -1 && !math.IsInf(dist[v], 1):
				t.Fatalf("trial %d node %d: BFS unreachable, Dijkstra %v", trial, v, dist[v])
			case bfsDepth != -1 && dist[v] != float64(bfsDepth):
				t.Fatalf("trial %d node %d: BFS %d vs Dijkstra %v", trial, v, bfsDepth, dist[v])
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 {
		t.Fatalf("Sets=%d", u.Sets())
	}
	if !u.Union(0, 1) || !u.Union(1, 2) {
		t.Error("fresh unions should merge")
	}
	if u.Union(0, 2) {
		t.Error("redundant union should report false")
	}
	if u.Sets() != 3 {
		t.Errorf("Sets=%d, want 3", u.Sets())
	}
	if !u.Connected(0, 2) || u.Connected(0, 3) {
		t.Error("connectivity wrong")
	}
}

func TestQuickUnionFindMatchesComponents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		g := New(n)
		u := NewUnionFind(n)
		for i := 0; i < 14; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			g.AddEdge(a, b, -1)
			u.Union(a, b)
		}
		comp, k := g.Components(nil)
		if k != u.Sets() {
			return false
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if (comp[a] == comp[b]) != u.Connected(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMaxFlowSimple(t *testing.T) {
	// Classic 4-node diamond: s=0, t=3; two unit paths.
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 1, 1)
	f.AddArc(0, 2, 1, 2)
	f.AddArc(1, 3, 1, 3)
	f.AddArc(2, 3, 1, 4)
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Errorf("max flow %d, want 2", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// s -> a (10), a -> b (3), b -> t (10): bottleneck 3.
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 10, 0)
	f.AddArc(1, 2, 3, 1)
	f.AddArc(2, 3, 10, 2)
	if got := f.MaxFlow(0, 3); got != 3 {
		t.Errorf("max flow %d, want 3", got)
	}
	cut := f.MinCutArcs(0)
	if len(cut) != 1 || cut[0] != 1 {
		t.Errorf("min cut labels %v, want [1]", cut)
	}
}

func TestMaxFlowSourceEqualsSink(t *testing.T) {
	f := NewFlowNetwork(2)
	f.AddArc(0, 1, 5, 0)
	if got := f.MaxFlow(0, 0); got != 0 {
		t.Errorf("s==t flow %d", got)
	}
}

func TestMinCutSeparates(t *testing.T) {
	// Grid-ish network; after max flow, the source side must not contain t.
	f := NewFlowNetwork(6)
	f.AddArc(0, 1, 2, 10)
	f.AddArc(0, 2, 2, 11)
	f.AddArc(1, 3, 1, 12)
	f.AddArc(2, 3, 1, 13)
	f.AddArc(1, 4, 1, 14)
	f.AddArc(2, 4, 1, 15)
	f.AddArc(3, 5, 2, 16)
	f.AddArc(4, 5, 2, 17)
	flow := f.MaxFlow(0, 5)
	if flow != 4 {
		t.Fatalf("flow %d, want 4", flow)
	}
	side := f.SourceSide(0)
	if side[5] {
		t.Error("sink on source side after max flow")
	}
	if !side[0] {
		t.Error("source not on source side")
	}
}

func TestMaxFlowMinCutDualityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 8
		f := NewFlowNetwork(n)
		type arc struct {
			u, v int
			c    int64
		}
		var arcs []arc
		for i := 0; i < 16; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int64(rng.Intn(4) + 1)
			f.AddArc(u, v, c, i)
			arcs = append(arcs, arc{u, v, c})
		}
		flow := f.MaxFlow(0, n-1)
		// Duality: flow equals capacity across the residual cut.
		side := f.SourceSide(0)
		var cutCap int64
		for _, a := range arcs {
			if side[a.u] && !side[a.v] {
				cutCap += a.c
			}
		}
		if flow != cutCap {
			t.Fatalf("trial %d: flow %d != cut capacity %d", trial, flow, cutCap)
		}
	}
}

func TestUndirectedFlow(t *testing.T) {
	f := NewFlowNetwork(3)
	f.AddUndirected(0, 1, 1, 0)
	f.AddUndirected(1, 2, 1, 1)
	if got := f.MaxFlow(0, 2); got != 1 {
		t.Errorf("undirected chain flow %d, want 1", got)
	}
}

func TestSplitHelpers(t *testing.T) {
	if SplitIn(3) != 6 || SplitOut(3) != 7 {
		t.Error("split index helpers wrong")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(2).AddEdge(0, 5, -1)
}

func TestBFSIntoMatchesBFS(t *testing.T) {
	g, at := ladder(6)
	enabled := func(e int) bool { return e%3 != 0 }
	want := g.BFS(at(0, 0), enabled)
	via := make([]int, g.N())
	queue := make([]int, 0, g.N())
	got := g.BFSInto(via, queue, []int{at(0, 0)}, enabled)
	for n := range want {
		if (want[n] == -1) != (got[n] == -1) || want[n] == -2 && got[n] != -2 {
			t.Fatalf("node %d: BFS via %d, BFSInto via %d", n, want[n], got[n])
		}
	}
	// Reuse: a second search into the same buffers must fully reset state.
	got = g.BFSInto(via, queue, []int{at(1, 5)}, nil)
	if got[at(1, 5)] != -2 || got[at(0, 0)] == -1 {
		t.Fatalf("reused buffers gave %v", got)
	}
}

func TestBFSIntoMultiSource(t *testing.T) {
	// Two disjoint paths: 0-1-2 and 3-4-5.
	g := New(6)
	g.AddEdge(0, 1, -1)
	g.AddEdge(1, 2, -1)
	g.AddEdge(3, 4, -1)
	g.AddEdge(4, 5, -1)
	via := g.BFSInto(make([]int, g.N()), make([]int, 0, g.N()), []int{0, 3}, nil)
	for n := 0; n < g.N(); n++ {
		if via[n] == -1 {
			t.Errorf("node %d unreachable from source set {0,3}", n)
		}
	}
	if via[0] != -2 || via[3] != -2 {
		t.Errorf("sources not marked: via[0]=%d via[3]=%d", via[0], via[3])
	}
	// Duplicate sources must be harmless.
	via = g.BFSInto(via, make([]int, 0, g.N()), []int{0, 0, 0}, nil)
	if via[2] == -1 || via[3] != -1 {
		t.Errorf("duplicate-source search gave %v", via)
	}
}

func TestBFSIntoEmptySources(t *testing.T) {
	g, _ := ladder(3)
	via := g.BFSInto(make([]int, g.N()), make([]int, 0, g.N()), nil, nil)
	for n, v := range via {
		if v != -1 {
			t.Errorf("node %d reached with no sources (via %d)", n, v)
		}
	}
}

// TestBFSWordsMatchesPerLaneBFS pins the word-parallel BFS against 64
// independent boolean BFS runs on random graphs with random per-edge enable
// masks: bit k of every node's reach word must equal lane k's scalar
// reachability.
func TestBFSWordsMatchesPerLaneBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		m := rng.Intn(3 * n)
		for e := 0; e < m; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), e)
		}
		masks := make([]uint64, g.M())
		for e := range masks {
			masks[e] = rng.Uint64()
		}
		srcs := []int{rng.Intn(n)}
		if rng.Intn(2) == 1 {
			srcs = append(srcs, rng.Intn(n))
		}
		seed := rng.Uint64() | 1 // at least one active lane
		reach := g.BFSWordsInto(make([]uint64, n), make([]int, n), make([]bool, n),
			srcs, seed, masks)
		for lane := 0; lane < 64; lane++ {
			bit := uint64(1) << lane
			if seed&bit == 0 {
				// Lanes outside the seed mask must not propagate at all.
				for v := 0; v < n; v++ {
					if reach[v]&bit != 0 {
						t.Fatalf("trial %d lane %d node %d reached outside seed", trial, lane, v)
					}
				}
				continue
			}
			via := g.BFSInto(make([]int, n), make([]int, 0, n), srcs,
				func(e int) bool { return masks[e]&bit != 0 })
			for v := 0; v < n; v++ {
				if (reach[v]&bit != 0) != (via[v] != -1) {
					t.Fatalf("trial %d lane %d node %d: word %v, scalar %v",
						trial, lane, v, reach[v]&bit != 0, via[v] != -1)
				}
			}
		}
	}
}

// TestBFSWordsRequeue forces the fixpoint path: a cycle where each lane
// enables a different prefix of the ring, so nodes are reached by later
// frontiers in additional universes and must re-enter the queue.
func TestBFSWordsRequeue(t *testing.T) {
	const n = 8
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, i)
	}
	// Edge i conducts in lanes i..63: lane k pressurizes nodes 0..? Edge i
	// enabled in lane k iff k >= i, so lane k reaches node v iff all edges
	// 0..v-1 are enabled, i.e. k >= v-1.
	enabled := make([]uint64, g.M())
	for e := range enabled {
		enabled[e] = ^uint64(0) << e
	}
	reach := g.BFSWordsInto(make([]uint64, n), make([]int, n), make([]bool, n),
		[]int{0}, ^uint64(0), enabled)
	for v := 1; v < n; v++ {
		want := ^uint64(0) << (v - 1)
		if reach[v] != want {
			t.Fatalf("node %d reach %#x, want %#x", v, reach[v], want)
		}
	}
}

// TestBFSWordsEmptyAndSources covers the degenerate shapes: no sources, an
// empty seed mask, all-zero enable masks, and duplicate sources.
func TestBFSWordsEmptyAndSources(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0)
	open := []uint64{^uint64(0)}
	reach := g.BFSWordsInto(make([]uint64, 3), make([]int, 3), make([]bool, 3),
		nil, ^uint64(0), open)
	for v, r := range reach {
		if r != 0 {
			t.Fatalf("no sources: node %d reach %#x", v, r)
		}
	}
	reach = g.BFSWordsInto(reach, make([]int, 3), make([]bool, 3),
		[]int{0}, 0, open)
	for v, r := range reach {
		if r != 0 {
			t.Fatalf("zero seed: node %d reach %#x", v, r)
		}
	}
	reach = g.BFSWordsInto(reach, make([]int, 3), make([]bool, 3),
		[]int{2, 2}, ^uint64(0), []uint64{0})
	if reach[2] != ^uint64(0) || reach[0] != 0 || reach[1] != 0 {
		t.Fatalf("isolated source: reach %v", reach)
	}
}

// TestWordBFSConcurrentFirstUse pins that the lazily built CSR mirror is
// safe when several goroutines make the first word-parallel query on a
// fresh graph at once, as campaign workers sharing one simulator do. The
// race detector (go test -race) is what catches a regression here.
func TestWordBFSConcurrentFirstUse(t *testing.T) {
	g, at := ladder(16)
	n, m := g.N(), g.M()
	enabled := make([]uint64, m)
	for e := range enabled {
		enabled[e] = ^uint64(0)
	}
	const workers = 4
	results := make(chan uint64, workers)
	for w := 0; w < workers; w++ {
		go func() {
			reach := g.BFSWordsInto(make([]uint64, n), make([]int, n), make([]bool, n),
				[]int{at(0, 0)}, 1, enabled)
			results <- reach[at(1, 15)]
		}()
	}
	for w := 0; w < workers; w++ {
		if r := <-results; r != 1 {
			t.Fatalf("far corner reach = %#x, want 1", r)
		}
	}
}
