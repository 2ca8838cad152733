package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/fpva"
)

// The /v1/stats wire shape, pinned key by key. Always-present keys must
// appear in every response; omitted-when-zero keys appear exactly when
// their value is non-zero.
var (
	statsKeys = []string{
		"jobsSubmitted", "jobsPending", "jobsRunning", "jobsDone", "jobsFailed", "jobsCanceled",
		"cacheHits", "cacheMisses", "cacheCoalesced", "cacheEntries", "cacheBytes", "cacheCapBytes",
		"solves", "solverWallNs", "sigCacheHits", "sigCacheMisses", "solverExecutor",
		"jobsShed", "authFailures", "rateLimited",
	}
	statsOptionalKeys = []string{
		"workerSlots", "workersAlive", "workersBusy", "workerSpawns", "workerRestarts", "workerKills",
	}
	storeKeys = []string{
		"mode", "entries", "bytes", "capBytes", "hits", "misses",
		"writes", "writeErrors", "skippedWrites", "readErrors", "quarantined", "evictions",
		"trips", "recoveries",
	}
	storeOptionalKeys = []string{"reason"}
	kindKeys          = []string{"submitted", "done", "failed", "canceled", "wallNs"}
)

// checkKeys asserts obj holds every key of required, no key outside
// required and optional, and each optional key only with a non-zero value.
func checkKeys(t *testing.T, where string, obj map[string]any, required, optional []string) {
	t.Helper()
	known := make(map[string]bool, len(required)+len(optional))
	for _, k := range required {
		known[k] = true
		if _, ok := obj[k]; !ok {
			t.Errorf("%s: key %q missing", where, k)
		}
	}
	for _, k := range optional {
		known[k] = true
		if v, ok := obj[k]; ok && (v == float64(0) || v == "") {
			t.Errorf("%s: key %q present with zero value", where, k)
		}
	}
	var extra []string
	for k := range obj {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: unexpected keys %v", where, extra)
	}
}

// checkStatsWire fetches /v1/stats as a generic JSON object and checks
// its key set: the store section is present exactly when the daemon has
// a cache directory, and kinds lists exactly the submitted job kinds.
func checkStatsWire(t *testing.T, base string, wantStore bool, wantKinds ...string) map[string]any {
	t.Helper()
	code, b := getBody(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	required := append([]string(nil), statsKeys...)
	if wantStore {
		required = append(required, "store")
	}
	if len(wantKinds) > 0 {
		required = append(required, "kinds")
	}
	checkKeys(t, "stats", m, required, statsOptionalKeys)
	if st, ok := m["store"].(map[string]any); ok {
		checkKeys(t, "stats.store", st, storeKeys, storeOptionalKeys)
	}
	kinds, _ := m["kinds"].(map[string]any)
	checkKeys(t, "stats.kinds", kinds, wantKinds, nil)
	for name, ks := range kinds {
		obj, _ := ks.(map[string]any)
		checkKeys(t, "stats.kinds."+name, obj, kindKeys, nil)
	}
	return m
}

// TestStatsWireKeys pins the /v1/stats key set and its absence rules in
// three daemon configurations: no store, a durable store (-cache-dir),
// and the subprocess solver executor. Each is checked fresh (no kinds
// section) and after one generate job.
func TestStatsWireKeys(t *testing.T) {
	arr := encodeArray(t, 4, 4)
	newStoreServer := func(t *testing.T) *httptest.Server {
		svc := fpva.NewService(fpva.WithCacheDir(t.TempDir()))
		srv := httptest.NewServer(newServer(svc, nil))
		t.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		return srv
	}
	for _, tc := range []struct {
		name       string
		start      func(t *testing.T) *httptest.Server
		store, sub bool
	}{
		{"memory", func(t *testing.T) *httptest.Server { srv, _ := newTestServer(t); return srv }, false, false},
		{"cache-dir", newStoreServer, true, false},
		{"subprocess", func(t *testing.T) *httptest.Server { srv, _ := newSubprocessServer(t, "solve"); return srv }, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.start(t)
			m := checkStatsWire(t, srv.URL, tc.store)
			if _, ok := m["workerSlots"]; ok != tc.sub {
				t.Errorf("workerSlots present = %v, want %v", ok, tc.sub)
			}
			runGenerate(t, srv.URL, arr)
			m = checkStatsWire(t, srv.URL, tc.store, "generate")
			if tc.store {
				if st := m["store"].(map[string]any); st["mode"] != "ok" || st["writes"] != float64(1) {
					t.Errorf("store section after one solve: %v", st)
				}
			}
			if want := map[bool]string{false: "in-process", true: "subprocess"}[tc.sub]; m["solverExecutor"] != want {
				t.Errorf("solverExecutor = %v, want %s", m["solverExecutor"], want)
			}
		})
	}
}
