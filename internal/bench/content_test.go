package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// hashVectors writes a generated test set's content — every vector's name
// and commanded-open valve IDs, in application order — into h. Timings and
// statistics stay out, so the digest moves only when a plan does.
func hashVectors(h hash.Hash, ts *core.TestSet) {
	for _, v := range ts.AllVectors() {
		fmt.Fprintf(h, "%s:%v\n", v.Name, v.OpenValves())
	}
}

// coldArrays draws n distinct arrays from the space the generate-cold
// benchmark workload solves: 6x6 to 18x18 sides, up to two transportation
// channels and two obstacles, standard corner ports. A draw whose layout
// does not validate, or that repeats an earlier one, is redrawn.
func coldArrays(seed int64, n int) []*grid.Array {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []*grid.Array
	for len(out) < n {
		rows, cols := 6+rng.Intn(13), 6+rng.Intn(13)
		nch, nob := rng.Intn(3), rng.Intn(3)
		a := grid.MustNew(rows, cols)
		key := fmt.Sprint(rows, cols)
		var err error
		for i := 0; i < nch && err == nil; i++ {
			if rng.Intn(2) == 0 {
				r, c0 := rng.Intn(rows), rng.Intn(cols-1)
				c1 := c0 + 1 + rng.Intn(cols-1-c0)
				_, err = a.SetChannelH(r, c0, c1)
				key += fmt.Sprint(" h", r, c0, c1)
			} else {
				c, r0 := rng.Intn(cols), rng.Intn(rows-1)
				r1 := r0 + 1 + rng.Intn(rows-1-r0)
				_, err = a.SetChannelV(c, r0, r1)
				key += fmt.Sprint(" v", c, r0, r1)
			}
		}
		for i := 0; i < nob && err == nil; i++ {
			r, c := rng.Intn(rows), rng.Intn(cols)
			_, err = a.SetObstacle(r, c)
			key += fmt.Sprint(" o", r, c)
		}
		if err == nil {
			err = a.StandardPorts()
		}
		if err == nil {
			err = a.Validate()
		}
		if err != nil || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, a)
	}
	return out
}

// TestPlanContentPins pins the content of generated plans, not just their
// sizes: a SHA-256 over every vector set of the Table I cases (one digest
// per case) and of 150 seeded arrays from the generate-cold space (one
// digest for all). A change that makes generation faster must leave these
// untouched; one that changes plans on purpose updates them in review,
// next to TestTable1Pins. Under -race only the Table I part runs.
func TestPlanContentPins(t *testing.T) {
	table1 := map[string]string{
		"5x5":   "33c40e6513d946bc6dc956026654cbc3eedecd4f4f239834700e6a3a60759071",
		"10x10": "e9ad5af4c945fb87442bbbaf93b0d79377b27f0ff99d32684c447c99a59dd1ab",
		"15x15": "8ab9899092a1946fea18cba4cef8b559bafe4c7a338ca568660f05d05ef66501",
		"20x20": "9b0264240f9eb03605dd00d83e6bff2437814a0ed7e44ba7b5addbbc1f5ceda4",
		"30x30": "5ccf6b7e8c28d53378d648690fcaad611260a3cd5072ca73890d492496640f3e",
	}
	for _, c := range Table1Cases() {
		ts, err := Row(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		h := sha256.New()
		hashVectors(h, ts)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != table1[c.Name] {
			t.Errorf("%s: plan digest %s, pinned %s", c.Name, got, table1[c.Name])
		}
	}
	if raceEnabled || testing.Short() {
		return
	}
	const seeded = "7eb3faf3fdcdb107be6e4d3f8873f414626631ed1095161cc9a49e2f39e7c43d"
	h := sha256.New()
	for i, a := range coldArrays(1, 150) {
		ts, err := core.Generate(context.Background(), a, core.Config{Hierarchical: true})
		if err != nil {
			t.Fatalf("seeded array %d (%v): %v", i, a, err)
		}
		fmt.Fprintf(h, "array %d %v\n", i, a)
		hashVectors(h, ts)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != seeded {
		t.Errorf("seeded generate-cold arrays: plan digest %s, pinned %s", got, seeded)
	}
}
