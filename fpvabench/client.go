package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// result is one job as the client saw it: the three HTTP calls of the
// job protocol, each with its own start and end.
type result struct {
	req      *request
	follower bool // second submission of a twin request
	id       string

	submitStart, submitEnd time.Time // POST /v1/jobs
	waitStart, waitEnd     time.Time // GET /v1/jobs/{id}/events, to the terminal line
	fetchStart, fetchEnd   time.Time // GET /v1/jobs/{id}/result, to the last byte

	events   int         // NDJSON event lines before the terminal line
	eventAt  []time.Time // arrival of each event line (traced runs only)
	state    string
	cacheHit bool
	size     int

	body             []byte // the result, when the workload keeps it
	spill            *os.File
	spillOff, spillN int64
	err              error
}

func (r *result) latency() time.Duration { return r.fetchEnd.Sub(r.submitStart) }

// stageGap is the part of the latency that none of the three calls
// covers: client work between them and, for a twin follower, the time
// its connection spent on the leader.
func (r *result) stageGap() time.Duration {
	return r.latency() - r.submitEnd.Sub(r.submitStart) - r.waitEnd.Sub(r.waitStart) - r.fetchEnd.Sub(r.fetchStart)
}

// resultBody returns the result payload, reading it back from the spill
// file when the client wrote it there.
func (r *result) resultBody() ([]byte, error) {
	if r.spill == nil {
		return r.body, nil
	}
	b := make([]byte, r.spillN)
	_, err := r.spill.ReadAt(b, r.spillOff)
	return b, err
}

// keepPolicy says what a client does with result payloads.
type keepPolicy int

const (
	keepBody  keepPolicy = iota // hold it in memory (small payloads)
	spillBody                   // append it to the client's spill file
	firstBody                   // compare it with the first payload of its key
)

// firstBodies holds the first payload served for every key; later
// payloads of the key must be byte-identical to it.
type firstBodies struct {
	mu sync.Mutex
	m  map[int][]byte
}

func (f *firstBodies) check(key int, b []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	first, ok := f.m[key]
	if !ok {
		f.m[key] = b
		return nil
	}
	if !bytes.Equal(first, b) {
		return fmt.Errorf("key %d: payload differs from the first response (%d vs %d bytes)", key, len(b), len(first))
	}
	return nil
}

// client is one closed-loop load client. It holds one keep-alive
// connection and runs one job at a time.
type client struct {
	base   string
	hc     *http.Client
	trace  bool
	policy keepPolicy
	spill  *os.File
	off    int64
	first  *firstBodies
}

func newClient(base string, policy keepPolicy, spill *os.File, first *firstBodies) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, policy: policy, spill: spill, first: first}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do runs one request: POST, then the event stream to its terminal line,
// then the result. A twin request submits twice back to back before
// either is awaited, so the second attaches to the first one's solve.
func (c *client) do(ctx context.Context, req *request) []*result {
	n := 1
	if req.twin {
		n = 2
	}
	rs := make([]*result, n)
	for i := range rs {
		rs[i] = &result{req: req, follower: i == 1}
		c.submit(ctx, rs[i])
	}
	for _, r := range rs {
		if r.err == nil {
			c.wait(ctx, r)
		}
		if r.err == nil {
			c.fetch(ctx, r)
		}
		if r.err == nil {
			r.err = c.keep(r)
		}
	}
	return rs
}

func (c *client) submit(ctx context.Context, r *result) {
	r.submitStart = time.Now()
	defer func() { r.submitEnd = time.Now() }()
	body, status, err := c.call(ctx, http.MethodPost, "/v1/jobs", r.req.body)
	if err != nil {
		r.err = err
		return
	}
	if status != http.StatusAccepted {
		r.err = fmt.Errorf("submit: HTTP %d: %s", status, bytes.TrimSpace(body))
		return
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &j); err != nil || j.ID == "" {
		r.err = fmt.Errorf("submit: bad job record %q", body)
		return
	}
	r.id = j.ID
}

// terminalLine is the union of an NDJSON event line and the stream's
// terminal job record (which has no "event" field).
type terminalLine struct {
	Event    string `json:"event"`
	State    string `json:"state"`
	CacheHit bool   `json:"cacheHit"`
	Error    string `json:"error"`
}

func (c *client) wait(ctx context.Context, r *result) {
	r.waitStart = time.Now()
	defer func() { r.waitEnd = time.Now() }()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+r.id+"/events", nil)
	if err != nil {
		r.err = err
		return
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		r.err = fmt.Errorf("events: %w", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("events: HTTP %d", resp.StatusCode)
		io.Copy(io.Discard, resp.Body)
		return
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var l terminalLine
			if jerr := json.Unmarshal(line, &l); jerr != nil {
				r.err = fmt.Errorf("events: bad line %q", line)
				return
			}
			if l.Event != "" {
				r.events++
				if c.trace {
					r.eventAt = append(r.eventAt, time.Now())
				}
				continue
			}
			r.state, r.cacheHit = l.State, l.CacheHit
			if l.State != "done" {
				r.err = fmt.Errorf("job %s ended %s: %s", r.id, l.State, l.Error)
			}
			// Drain to EOF so the connection goes back to the pool.
			io.Copy(io.Discard, br)
			return
		}
		if err != nil {
			r.err = fmt.Errorf("events: stream ended without a terminal line: %v", err)
			return
		}
	}
}

func (c *client) fetch(ctx context.Context, r *result) {
	r.fetchStart = time.Now()
	body, status, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+r.id+"/result", nil)
	r.fetchEnd = time.Now()
	if err != nil {
		r.err = err
		return
	}
	if status != http.StatusOK {
		r.err = fmt.Errorf("result: HTTP %d: %s", status, bytes.TrimSpace(body))
		return
	}
	r.size = len(body)
	r.body = body
}

// keep applies the client's payload policy after the job's clock stopped.
func (c *client) keep(r *result) error {
	switch c.policy {
	case spillBody:
		n, err := c.spill.Write(r.body)
		if err != nil {
			return fmt.Errorf("spill: %w", err)
		}
		r.spill, r.spillOff, r.spillN = c.spill, c.off, int64(n)
		c.off += int64(n)
		r.body = nil
	case firstBody:
		err := c.first.check(r.req.key, r.body)
		r.body = nil
		return err
	}
	return nil
}

// call performs one request and reads the whole response.
func (c *client) call(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	return b, resp.StatusCode, nil
}

// getJSON fetches a daemon resource such as /v1/stats.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	b, status, err := c.call(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, status)
	}
	return json.Unmarshal(b, v)
}

// runPhase drives the daemon with the workload's stream for d.
func runPhase(ctx context.Context, clients []*client, src *inputs, d time.Duration) ([]*result, time.Duration, error) {
	return drive(ctx, clients, src.next, time.Now().Add(d))
}

// listSource serves the requests of a fixed list once each, then nil.
func listSource(reqs []*request) func() (*request, error) {
	var mu sync.Mutex
	i := 0
	return func() (*request, error) {
		mu.Lock()
		defer mu.Unlock()
		if i == len(reqs) {
			return nil, nil
		}
		i++
		return reqs[i-1], nil
	}
}

// drive runs closed-loop clients: each starts its next request only when
// the previous one finished, and stops when next returns nil or the
// deadline has passed. It returns every job, per client in completion
// order, and the wall time until the last job finished.
func drive(ctx context.Context, clients []*client, next func() (*request, error), deadline time.Time) ([]*result, time.Duration, error) {
	start := time.Now()
	per := make([][]*result, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				req, err := next()
				if err != nil || req == nil {
					errs[i] = err
					return
				}
				per[i] = append(per[i], c.do(ctx, req)...)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	var out []*result
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out, wall, nil
}
