package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// randomFlipArray builds a random array with transportation channels,
// obstacles and, on some draws, extra sources and sinks on random boundary
// edges. It returns nil when the draw does not validate (say, an obstacle
// sealed every source); callers skip those.
func randomFlipArray(rng *rand.Rand) *grid.Array {
	rows, cols := 2+rng.Intn(7), 2+rng.Intn(7)
	a := grid.MustNew(rows, cols)
	for i, n := 0, rng.Intn(3); i < n; i++ {
		if rng.Intn(2) == 0 && cols > 1 {
			c0 := rng.Intn(cols - 1)
			a.SetChannelH(rng.Intn(rows), c0, c0+1+rng.Intn(cols-1-c0))
		} else if rows > 1 {
			r0 := rng.Intn(rows - 1)
			a.SetChannelV(rng.Intn(cols), r0, r0+1+rng.Intn(rows-1-r0))
		}
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		a.SetObstacle(rng.Intn(rows), rng.Intn(cols))
	}
	// Port attempts may fail (obstacle behind the edge, edge taken); the
	// array is kept if at least one source and one sink landed.
	a.AddSource("src", a.HValve(0, 0))
	a.AddSink("meter", a.HValve(rows-1, cols))
	if rng.Intn(2) == 0 {
		var boundary []grid.ValveID
		for id := 0; id < a.NumValves(); id++ {
			if a.IsBoundary(grid.ValveID(id)) {
				boundary = append(boundary, grid.ValveID(id))
			}
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			id := boundary[rng.Intn(len(boundary))]
			if rng.Intn(2) == 0 {
				a.AddSource(fmt.Sprintf("src%d", i), id)
			} else {
				a.AddSink(fmt.Sprintf("meter%d", i), id)
			}
		}
	}
	if a.Validate() != nil {
		return nil
	}
	return a
}

// bruteSingleFlips is the reference for SingleFlipsInto: one BFS per valve
// flip, comparing the flipped readings with the fault-free ones. It flips
// the effective state directly, so Channel and PortOpen edges (which no
// stuck-at fault can close) are probed like any other conducting edge.
func bruteSingleFlips(s *Simulator, vec *Vector) (closeDet, openDet []uint64) {
	closeDet, openDet = make([]uint64, s.FlipWords()), make([]uint64, s.FlipWords())
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.effIntoBase(sc.eff, vec)
	golden := s.readingsInto(sc, make([]bool, len(s.sinkNodes)))
	out := make([]bool, len(s.sinkNodes))
	for v := range sc.eff {
		sc.eff[v] = !sc.eff[v]
		s.readingsInto(sc, out)
		sc.eff[v] = !sc.eff[v]
		for i := range golden {
			if golden[i] != out[i] {
				det := openDet
				if sc.eff[v] {
					det = closeDet
				}
				det[v>>6] |= 1 << (uint(v) & 63)
				break
			}
		}
	}
	return closeDet, openDet
}

// checkSingleFlips compares the kernel with the brute-force reference on
// every valve, in both polarities.
func checkSingleFlips(t *testing.T, s *Simulator, vec *Vector) {
	t.Helper()
	wantC, wantO := bruteSingleFlips(s, vec)
	gotC, gotO := make([]uint64, s.FlipWords()), make([]uint64, s.FlipWords())
	// Dirty tables: the kernel must overwrite, not accumulate.
	for i := range gotC {
		gotC[i], gotO[i] = ^uint64(0), ^uint64(0)
	}
	s.SingleFlipsInto(vec, gotC, gotO)
	for v := 0; v < s.Array().NumValves(); v++ {
		id := grid.ValveID(v)
		if Flipped(gotC, id) != Flipped(wantC, id) {
			t.Fatalf("%v, vector %v: closing valve %d changes readings: kernel %v, brute force %v",
				s.Array(), vec.OpenValves(), v, Flipped(gotC, id), Flipped(wantC, id))
		}
		if Flipped(gotO, id) != Flipped(wantO, id) {
			t.Fatalf("%v, vector %v: opening valve %d changes readings: kernel %v, brute force %v",
				s.Array(), vec.OpenValves(), v, Flipped(gotO, id), Flipped(wantO, id))
		}
	}
}

// flipVectors draws test vectors of varied density: sparse ones leave most
// sinks dark (exercising the open-a-closed-edge rule), dense ones keep them
// lit through cycles (exercising the bridge rule).
func flipVectors(a *grid.Array, rng *rand.Rand, n int) []*Vector {
	out := make([]*Vector, 0, n)
	for i := 0; i < n; i++ {
		v := NewVector(a, Custom, "flip")
		p := rng.Intn(101)
		for _, id := range a.NormalValves() {
			if rng.Intn(100) < p {
				v.SetOpen(id, true)
			}
		}
		out = append(out, v)
	}
	return out
}

// TestSingleFlipsMatchBruteForce is the acceptance test of the single-flip
// kernel: on random arrays with channels, obstacles and extra ports, every
// valve's answer in both polarities matches one BFS per flip.
func TestSingleFlipsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	arrays, extraPorts := 0, 0
	for arrays < 200 {
		a := randomFlipArray(rng)
		if a == nil {
			continue
		}
		arrays++
		if len(a.Ports()) > 2 {
			extraPorts++
		}
		s := MustNew(a)
		vecs := append(flipVectors(a, rng, 10), lPath(a))
		for _, vec := range vecs {
			checkSingleFlips(t, s, vec)
		}
	}
	if extraPorts == 0 {
		t.Fatal("no array drew extra ports; the multi-source/multi-sink rules went untested")
	}
}

// TestCompileTablesMatchSingleFlips pins that Compile stores the kernel's
// tables as is, so the campaign engine's monotonicity shortcut and the
// generators agree on what a single flip does.
func TestCompileTablesMatchSingleFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		a := randomFlipArray(rng)
		if a == nil {
			continue
		}
		s := MustNew(a)
		vecs := flipVectors(a, rng, 4)
		cv := s.Compile(vecs)
		for j, vec := range vecs {
			wantC, wantO := bruteSingleFlips(s, vec)
			if fmt.Sprint(cv.detClosure[j]) != fmt.Sprint(wantC) || fmt.Sprint(cv.detOpen[j]) != fmt.Sprint(wantO) {
				t.Fatalf("%v vector %d: compiled tables %v/%v, brute force %v/%v",
					a, j, cv.detClosure[j], cv.detOpen[j], wantC, wantO)
			}
		}
	}
}

// FuzzSingleFlips drives the kernel-versus-brute-force check from a fuzzed
// seed: the seed picks the array (channels, obstacles, extra ports) and
// the vectors.
func FuzzSingleFlips(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 15, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		a := randomFlipArray(rng)
		if a == nil {
			return
		}
		s := MustNew(a)
		for _, vec := range flipVectors(a, rng, 4) {
			checkSingleFlips(t, s, vec)
		}
	})
}
