// Single-flip kernel: for one vector, which valves change some sink reading
// when flipped alone. Generation asks this question for every member of a
// candidate cut, every valve of a candidate path and every leakage pair, and
// Compile asks it for every valve of every vector to build the monotonicity
// tables of the campaign engine. Answering it per valve costs one BFS each;
// the kernel answers it for all valves at once in O(V+E).
//
// Why it is exact. Let R be the set of nodes pressurized under the vector
// (reachable from the sources through open edges).
//
//   - Opening a closed edge (u,w) changes the readings iff exactly one
//     endpoint lies in R and the other endpoint's open component holds a
//     sink. That component lies wholly outside R (R is closed under open
//     edges), so its sinks are dark now and light up once the edge opens;
//     any other closed edge either joins two pressurized nodes or two
//     unpressurized ones and leaves R unchanged.
//   - Closing an open edge changes the readings iff it is a bridge of R's
//     open subgraph, with a virtual root joined to every source, and the
//     side cut off from the root holds a sink. The virtual root is what
//     makes a subtree holding another source never count as cut off: that
//     source is a back edge to the root. A non-bridge leaves every node of
//     R connected to the root, and an open edge outside R carries no
//     pressure either way.
//
// One iterative bridge DFS from the sources finds R, the bridges and which
// subtrees hold a sink; one BFS from the dark sinks marks the open
// components outside R that hold one; one scan over the closed edges
// reads the answers off. Every valve maps to at most one graph edge (see
// New), so flipping a valve flips exactly one edge.
package sim

import "repro/internal/grid"

// flipScratch is the working set of one SingleFlipsInto call, pooled on the
// Simulator so the kernel allocates nothing in the steady state.
type flipScratch struct {
	eff     []bool  // per valve: fault-free effective state
	disc    []int32 // per node: DFS discovery time, 0 = not pressurized
	low     []int32 // per node: lowest discovery time reachable by one back edge
	next    []int32 // per node: next adjacency index to scan
	parent  []int32 // per node: DFS tree edge into it, -1 for a DFS root
	sink    []bool  // per node: its DFS subtree holds a sink
	stack   []int32
	via     []int // dark-sink BFS result
	queue   []int
	dark    []int // sinks outside R, the dark-sink BFS seeds
	enabled func(e int) bool
}

func (s *Simulator) newFlipScratch() *flipScratch {
	n := s.g.N()
	fs := &flipScratch{
		eff:    make([]bool, s.arr.NumValves()),
		disc:   make([]int32, n),
		low:    make([]int32, n),
		next:   make([]int32, n),
		parent: make([]int32, n),
		sink:   make([]bool, n),
		stack:  make([]int32, 0, n),
		via:    make([]int, n),
		queue:  make([]int, 0, n),
		dark:   make([]int, 0, len(s.sinkNodes)),
	}
	fs.enabled = func(e int) bool { return fs.eff[s.edgeValve[e]] }
	return fs
}

// FlipWords returns the length in words of each table SingleFlipsInto
// fills: one bit per valve ID.
func (s *Simulator) FlipWords() int { return (s.arr.NumValves() + 63) / 64 }

// Flipped reports whether valve id's bit is set in a SingleFlipsInto table.
//
//fpva:allocfree
func Flipped(det []uint64, id grid.ValveID) bool { return det[id>>6]>>(uint(id)&63)&1 != 0 }

// SingleFlipsInto answers, for every valve at once, whether flipping that
// valve alone changes any sink reading of vec on a fault-free chip. Bit v
// of closeDet (word v/64, bit v%64) is set iff closing open valve v changes
// the readings; bit v of openDet is set iff opening closed valve v does. A
// valve already in the flipped state has its bit clear, as do valves with
// no flow edge (Walls). Both tables must hold FlipWords() words and are
// overwritten. This is the layout of CompiledVectors' detClosure/detOpen
// tables.
//
// A vector that passes VerifyCutVector keeps every sink dark, so there
// openDet[v] means "opening v pressurizes a sink" (a cut member's
// stuck-at-1 is observable); on a flow-path vector closeDet[v] means a
// stuck-at-0 on v is observable.
//
//fpva:allocfree
func (s *Simulator) SingleFlipsInto(vec *Vector, closeDet, openDet []uint64) {
	fs := s.flipScratches.Get().(*flipScratch)
	defer s.flipScratches.Put(fs)
	for i := range closeDet {
		closeDet[i] = 0
	}
	for i := range openDet {
		openDet[i] = 0
	}
	s.effIntoBase(fs.eff, vec)
	eff, disc, low, next, parent, sink := fs.eff, fs.disc, fs.low, fs.next, fs.parent, fs.sink
	for n := range disc {
		disc[n] = 0
		next[n] = 0
		sink[n] = false
	}
	for _, n := range s.sinkNodes {
		sink[n] = true
	}

	// Bridge DFS over the open edges from a virtual root (discovery time 0)
	// joined to every source: a source's virtual edge is a back edge to the
	// root unless it is the tree edge, so every source starts with low 0.
	t := int32(0)
	for _, root := range s.srcNodes {
		if disc[root] != 0 {
			continue
		}
		t++
		disc[root], low[root], parent[root] = t, 0, -1
		stack := fs.stack[:0]
		stack = append(stack, int32(root))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if adj := s.g.Adj(int(u)); int(next[u]) < len(adj) {
				a := adj[next[u]]
				next[u]++
				if int32(a.Edge) == parent[u] || !eff[s.edgeValve[a.Edge]] {
					continue
				}
				if w := a.To; disc[w] == 0 {
					t++
					disc[w], low[w], parent[w] = t, t, int32(a.Edge)
					if s.isSrcNode[w] {
						low[w] = 0
					}
					stack = append(stack, int32(w))
				} else if disc[w] < low[u] {
					low[u] = disc[w]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if parent[u] < 0 {
				continue
			}
			p := stack[len(stack)-1]
			if low[u] < low[p] {
				low[p] = low[u]
			}
			if sink[u] {
				sink[p] = true
				if low[u] > disc[p] {
					v := s.edgeValve[parent[u]]
					closeDet[v>>6] |= 1 << (uint(v) & 63)
				}
			}
		}
		fs.stack = stack
	}

	// Open components outside R that hold a sink: one BFS from the dark
	// sinks. Opening a closed edge from R into one of them lights it up.
	dark := fs.dark[:0]
	for _, n := range s.sinkNodes {
		if disc[n] == 0 {
			dark = append(dark, n)
		}
	}
	fs.dark = dark
	if len(dark) == 0 {
		return
	}
	lit := s.g.BFSInto(fs.via, fs.queue, dark, fs.enabled)
	for e, ed := range s.g.Edges() {
		v := s.edgeValve[e]
		if eff[v] {
			continue
		}
		if (disc[ed.U] != 0 && lit[ed.V] != -1) || (disc[ed.V] != 0 && lit[ed.U] != -1) {
			openDet[v>>6] |= 1 << (uint(v) & 63)
		}
	}
}
