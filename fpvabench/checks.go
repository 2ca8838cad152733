package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/fpva"
)

// quality sums what the paper optimises over the distinct plans served:
// vectors per valve under test, and single stuck-at faults missed.
type quality struct {
	mu              sync.Mutex
	plans           int
	valves, vectors int
	faults, escapes int
}

func (q *quality) add(ctx context.Context, p *fpva.Plan) error {
	esc, err := p.VerifySingleFaults(ctx)
	if err != nil {
		return err
	}
	st := p.Stats()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.plans++
	q.valves += st.NV
	q.vectors += st.N
	q.faults += 2 * st.NV
	q.escapes += len(esc)
	return nil
}

func (q *quality) vectorsPerValve() float64 { return ratio(q.vectors, q.valves) }

func (q *quality) coverage() float64 { return 1 - ratio(q.escapes, q.faults) }

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and returns the
// errors by index.
func parallel(n int, f func(i int) error) []error {
	errs := make([]error, n)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				errs[k] = f(k)
			}
		}()
	}
	wg.Wait()
	return errs
}

// checkPlan is the oracle of every served generate result: the plan
// decodes, and its array re-encodes to the bytes that were submitted.
func checkPlan(body, submitted []byte) (*fpva.Plan, error) {
	p, err := fpva.DecodePlan(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	wire, err := encodeArray(p.Array())
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(wire, submitted) {
		return nil, fmt.Errorf("plan's array re-encodes to %d bytes that differ from the %d submitted", len(wire), len(submitted))
	}
	return p, nil
}

func checkGenerateCold(ctx context.Context, in *inputs, rs []*result, _ *firstBodies) (*quality, []error) {
	return checkGenerate(ctx, in, rs, false)
}

func checkGenerateExact(ctx context.Context, in *inputs, rs []*result, _ *firstBodies) (*quality, []error) {
	return checkGenerate(ctx, in, rs, true)
}

// checkGenerate verifies the served plans of a generate workload, and
// with exact set, that each equals an in-process solve of the same array
// up to the timing statistics.
func checkGenerate(ctx context.Context, in *inputs, rs []*result, exact bool) (*quality, []error) {
	q := &quality{}
	var svc *fpva.Service
	if exact {
		svc = fpva.NewService(fpva.WithCacheBytes(0))
		defer svc.Close()
	}
	return q, parallel(len(rs), func(i int) error {
		r := rs[i]
		if r.err != nil {
			return nil
		}
		body, err := r.resultBody()
		if err != nil {
			return err
		}
		inp := in.array(r.req.key)
		p, err := checkPlan(body, inp.wire)
		if err != nil {
			return err
		}
		if exact {
			if err := sameAsInProcess(ctx, svc, inp.a, in.params, body); err != nil {
				return err
			}
		}
		return q.add(ctx, p)
	})
}

func sameAsInProcess(ctx context.Context, svc *fpva.Service, a *fpva.Array, params *genParams, served []byte) error {
	j, err := svc.SubmitGenerate(ctx, a, params.options()...)
	if err != nil {
		return err
	}
	defer svc.Forget(j.ID())
	if err := j.Wait(ctx); err != nil {
		return err
	}
	p, err := j.Plan()
	if err != nil {
		return err
	}
	local, err := encodePlan(p)
	if err != nil {
		return err
	}
	want, err := canonicalPlan(local)
	if err != nil {
		return err
	}
	got, err := canonicalPlan(served)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served plan differs from the in-process solve beyond the timing fields")
	}
	return nil
}

// checkPlanCache verifies the first payload of every key (the primed
// plans and the fresh leaders). Every later payload of a key was compared
// with that first one as it arrived.
func checkPlanCache(ctx context.Context, in *inputs, _ []*result, first *firstBodies) (*quality, []error) {
	q := &quality{}
	keys := make([]int, 0, len(first.m))
	for k := range first.m {
		keys = append(keys, k)
	}
	return q, parallel(len(keys), func(i int) error {
		p, err := checkPlan(first.m[keys[i]], in.array(keys[i]).wire)
		if err != nil {
			return fmt.Errorf("key %d: %w", keys[i], err)
		}
		return q.add(ctx, p)
	})
}

// campaignReport is the part of fpvad's campaign result the oracle
// compares.
type campaignReport struct {
	Trials   int               `json:"trials"`
	Detected int               `json:"detected"`
	Sims     int               `json:"sims"`
	Escapes  []json.RawMessage `json:"escapes"`
}

// checkEvaluate recomputes every campaign and diagnosis in-process with
// Plan.Campaign and Plan.Diagnose and compares the results.
func checkEvaluate(ctx context.Context, in *inputs, rs []*result, _ *firstBodies) (*quality, []error) {
	q := &quality{}
	for _, pl := range in.plans {
		if err := q.add(ctx, pl.p); err != nil {
			return q, []error{err}
		}
	}
	return q, parallel(len(rs), func(i int) error {
		r := rs[i]
		if r.err != nil {
			return nil
		}
		p := in.plans[r.req.key].p
		switch r.req.class {
		case classCampaign:
			var got campaignReport
			if err := json.Unmarshal(r.body, &got); err != nil {
				return fmt.Errorf("campaign report: %w", err)
			}
			c := r.req.camp
			want, err := p.Campaign(ctx, r.req.campaignOptions()...)
			if err != nil {
				return err
			}
			if got.Trials != want.Trials || got.Detected != want.Detected || got.Sims != want.Sims || len(got.Escapes) != len(want.Escapes) {
				return fmt.Errorf("campaign %+v: served %d/%d detected, %d sims; in-process %d/%d, %d sims",
					c, got.Detected, got.Trials, got.Sims, want.Detected, want.Trials, want.Sims)
			}
		case classDiagnose:
			d, err := p.Diagnose(ctx, r.req.obs)
			if err != nil {
				return err
			}
			var want bytes.Buffer
			if err := fpva.EncodeDiagnosis(&want, d); err != nil {
				return err
			}
			if !bytes.Equal(bytes.TrimSpace(r.body), bytes.TrimSpace(want.Bytes())) {
				return fmt.Errorf("diagnosis differs from Plan.Diagnose on the same %d observations", len(r.req.obs))
			}
		}
		return nil
	})
}
