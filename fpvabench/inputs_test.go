package main

import (
	"bytes"
	"testing"

	"repro/fpva"
)

// streamBodies returns the payloads of a workload's first n set-up and
// stream requests for one seed.
func streamBodies(t *testing.T, wl workload, seed int64, n int) [][]byte {
	t.Helper()
	in, err := wl.build(seed)
	if err != nil {
		t.Fatalf("%s: build(%d): %v", wl.name, seed, err)
	}
	var out [][]byte
	for _, r := range in.prime {
		out = append(out, r.body)
	}
	for i := 0; i < n; i++ {
		r, err := in.next()
		if err != nil {
			t.Fatalf("%s: next: %v", wl.name, err)
		}
		out = append(out, r.body)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b := streamBodies(t, wl, 7, 50), streamBodies(t, wl, 7, 50)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two builds from seed 7", wl.name, i)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, wl := range workloads {
		a, b := streamBodies(t, wl, 7, 50), streamBodies(t, wl, 8, 50)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], b[i]) {
				same++
			}
		}
		// generate-cold starts with the same five Table I arrays for
		// every seed; everything after them must differ.
		if same > 5 {
			t.Errorf("%s: %d of %d requests equal across seeds 7 and 8", wl.name, same, len(a))
		}
	}
}

// TestArraysValid decodes every array a generate stream submits and
// rebuilds it through fpva.NewArray's validation, and checks that no
// array repeats.
func TestArraysValid(t *testing.T) {
	for _, wl := range workloads {
		if wl.name == "evaluate" {
			continue
		}
		in, err := wl.build(3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if _, err := in.next(); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[string]bool{}
		for i, a := range in.arrays {
			if seen[string(a.wire)] {
				t.Errorf("%s: array %d repeats an earlier one", wl.name, i)
			}
			seen[string(a.wire)] = true
			dec, err := fpva.DecodeArray(bytes.NewReader(a.wire))
			if err != nil {
				t.Fatalf("%s: array %d does not decode: %v", wl.name, i, err)
			}
			if _, err := fpva.ParseArrayText(bytes.NewReader([]byte(dec.Text()))); err != nil {
				t.Errorf("%s: array %d fails validation: %v", wl.name, i, err)
			}
		}
	}
}

func TestCanonicalPlanIgnoresTimings(t *testing.T) {
	a, err := fpva.NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc := fpva.NewService(fpva.WithCacheBytes(0))
	defer svc.Close()
	var wires [][]byte
	for i := 0; i < 2; i++ {
		j, err := svc.SubmitGenerate(t.Context(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
		p, err := j.Plan()
		if err != nil {
			t.Fatal(err)
		}
		w, err := encodePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := canonicalPlan(w)
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, c)
	}
	if !bytes.Equal(wires[0], wires[1]) {
		t.Fatal("two solves of one array differ after the timing fields are dropped")
	}
}
