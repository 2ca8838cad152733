package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTable1CasesValveCounts(t *testing.T) {
	// The reconstruction invariant: every benchmark array has exactly the
	// paper's nv.
	for _, c := range Table1Cases() {
		a, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got := a.NumNormal(); got != c.PaperNV {
			t.Errorf("%s: nv=%d, paper %d", c.Name, got, c.PaperNV)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestTable1Pins pins the measured Table I row of every benchmark case —
// the vector counts and the single faults the set fails to detect — so
// any change to generation shows up here as a reviewed diff. The 30x30
// escapes are the three stuck-at-1 faults on the valves the heuristic cut
// engine leaves untestable (dense valve IDs; see ROADMAP.md).
func TestTable1Pins(t *testing.T) {
	want := map[string]struct {
		np, nc, nl, n int
		escapes       string
	}{
		"5x5":   {4, 10, 2, 16, "[]"},
		"10x10": {8, 26, 9, 43, "[]"},
		"15x15": {14, 37, 27, 78, "[]"},
		"20x20": {17, 38, 43, 98, "[]"},
		"30x30": {43, 120, 68, 231, "[stuck-at-1(422) stuck-at-1(1458) stuck-at-1(1486)]"},
	}
	for _, c := range Table1Cases() {
		ts, err := Row(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		escaped, err := ts.VerifySingleFaults(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		w, s := want[c.Name], ts.Stats
		if s.NP != w.np || s.NC != w.nc || s.NL != w.nl || s.N != w.n {
			t.Errorf("%s: np/nc/nl/N = %d/%d/%d/%d, pinned %d/%d/%d/%d",
				c.Name, s.NP, s.NC, s.NL, s.N, w.np, w.nc, w.nl, w.n)
		}
		if got := fmt.Sprint(escaped); got != w.escapes {
			t.Errorf("%s: single-fault escapes %s, pinned %s", c.Name, got, w.escapes)
		}
	}
}

func TestFindCase(t *testing.T) {
	c, err := FindCase("20x20")
	if err != nil || c.Dim != 20 {
		t.Errorf("FindCase: %+v, %v", c, err)
	}
	if _, err := FindCase("7x7"); err == nil {
		t.Error("unknown case accepted")
	}
}

func TestRowSmall(t *testing.T) {
	c, err := FindCase("5x5")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Row(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Stats.NV != 39 {
		t.Errorf("NV=%d", ts.Stats.NV)
	}
	if len(ts.UncoveredPath) > 0 || len(ts.UncoveredCut) > 0 {
		t.Errorf("uncovered: %v / %v", ts.UncoveredPath, ts.UncoveredCut)
	}
	// Full detection on the benchmark array.
	escaped, err := ts.VerifySingleFaults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(escaped) > 0 {
		t.Errorf("undetected single faults: %v", escaped)
	}
}

func TestRowMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium benchmark array")
	}
	c, err := FindCase("10x10")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Row(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.UncoveredPath) > 0 || len(ts.UncoveredCut) > 0 {
		t.Fatalf("uncovered: %v / %v", ts.UncoveredPath, ts.UncoveredCut)
	}
	escaped, err := ts.VerifySingleFaults(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(escaped) > 0 {
		t.Errorf("undetected single faults: %v", escaped)
	}
	// Total vector count should scale like ~2*sqrt(nv), far below the
	// baseline's 2*nv.
	if ts.Stats.N >= BaselineCount(ts.Array) {
		t.Errorf("N=%d not better than baseline %d", ts.Stats.N, BaselineCount(ts.Array))
	}
}

func TestBaselineVectors(t *testing.T) {
	c, err := FindCase("5x5")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := BaselineVectors(a)
	if err != nil {
		t.Fatal(err)
	}
	want := BaselineCount(a)
	if len(vecs) != want {
		t.Errorf("%d baseline vectors, want %d", len(vecs), want)
	}
	// The baseline must detect all single faults too.
	s := sim.MustNew(a)
	for _, f := range sim.AllSingleFaults(a) {
		if !s.Detects(vecs, []sim.Fault{f}) {
			t.Errorf("baseline misses %v", f)
		}
	}
}

func TestCampaignSeries(t *testing.T) {
	c, err := FindCase("5x5")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Row(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	series, err := CampaignSeries(context.Background(), ts, 200, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("%d series entries", len(series))
	}
	for k, r := range series {
		if r.Detected != r.Trials {
			t.Errorf("k=%d: %d/%d detected; escapes %v", k+1, r.Detected, r.Trials, r.Escapes)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five arrays")
	}
	out, err := Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"5x5", "10x10", "15x15", "20x20", "30x30", "nv"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}
