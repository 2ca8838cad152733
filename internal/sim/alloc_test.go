package sim

import (
	"context"
	"testing"

	"repro/internal/grid"
)

// TestCampaignInnerLoopAllocationFree pins the campaign-engine guarantee:
// the per-trial work (fault draw, state overlay, BFS, golden compare) runs
// entirely on reusable scratch. The campaign's total allocation count is a
// small constant — independent of the trial count — and a single compiled
// detection probe allocates nothing at all.
func TestCampaignInnerLoopAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	a := grid.MustNewStandard(5, 5)
	s := MustNew(a)
	vecs := []*Vector{lPath(a), columnCut(a, 2), columnCut(a, 4)}
	cv := s.Compile(vecs)

	faults := []Fault{{Kind: StuckAt0, A: a.HValve(0, 1)}}
	cv.Detects(faults) // warm the scratch pool
	if allocs := testing.AllocsPerRun(200, func() { cv.Detects(faults) }); allocs != 0 {
		t.Fatalf("compiled Detects allocates %v objects per probe, want 0", allocs)
	}

	run := func(trials int) float64 {
		cfg := CampaignConfig{Trials: trials, NumFaults: 3, Seed: 7, Workers: 1}
		if _, err := cv.RunCampaign(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := cv.RunCampaign(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(64), run(2048)
	// The fixed overhead (RNG, scratch struct, result assembly) is allowed;
	// anything proportional to trials is a regression of the inner loop.
	if large > small+8 {
		t.Fatalf("campaign allocations scale with trials: %v at 64 trials, %v at 2048", small, large)
	}
	// ~44 today: RNG + scratch + the closures and boxed counters of the
	// worker machinery, all per campaign, none per trial.
	if large > 64 {
		t.Fatalf("campaign fixed allocation overhead too high: %v objects", large)
	}
}

// TestSingleFlipsAllocationFree pins the single-flip kernel to zero
// allocations per call once its pooled scratch is warm: generation calls it
// once per candidate cut, path and leakage vector.
func TestSingleFlipsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	a := grid.MustNewStandard(8, 8)
	if _, err := a.SetChannelH(3, 1, 4); err != nil {
		t.Fatal(err)
	}
	s := MustNew(a)
	closeDet, openDet := make([]uint64, s.FlipWords()), make([]uint64, s.FlipWords())
	for _, vec := range []*Vector{lPath(a), columnCut(a, 4)} {
		s.SingleFlipsInto(vec, closeDet, openDet) // warm the scratch pool
		if allocs := testing.AllocsPerRun(200, func() { s.SingleFlipsInto(vec, closeDet, openDet) }); allocs != 0 {
			t.Fatalf("SingleFlipsInto(%s) allocates %v objects per call, want 0", vec.Name, allocs)
		}
	}
}
