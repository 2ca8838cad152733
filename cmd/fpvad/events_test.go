package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/cmd/internal/api"
	"repro/fpva"
)

// flushCounter is a ResponseWriter that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestEventsFlushOncePerBatch: the events stream of a job that is already
// terminal — a solve and a cache hit alike — goes out in one flush, with
// every phase event and the terminal status line in it.
func TestEventsFlushOncePerBatch(t *testing.T) {
	svc := fpva.NewService()
	t.Cleanup(func() { svc.Close() })
	h := newServer(svc, nil)
	a, err := fpva.NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"solve", "cache hit"} {
		job, err := svc.SubmitGenerate(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if job.CacheHit() != (name == "cache hit") {
			t.Fatalf("%s: CacheHit = %v", name, job.CacheHit())
		}
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+job.ID()+"/events", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: events: %d %s", name, w.Code, w.Body)
		}
		if w.flushes != 1 {
			t.Errorf("%s: %d flushes, want 1", name, w.flushes)
		}
		var lines []api.Event
		sc := bufio.NewScanner(w.Body)
		for sc.Scan() {
			var e api.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("%s: bad NDJSON line %q: %v", name, sc.Text(), err)
			}
			lines = append(lines, e)
		}
		if len(lines) != 7 || lines[6].Event != "" {
			t.Errorf("%s: streamed %+v, want 6 phase events and the status line", name, lines)
		}
	}
}
