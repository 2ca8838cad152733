package fpva

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// DefaultCacheBytes is the plan-cache byte budget of a service built
// without WithCacheBytes.
const DefaultCacheBytes = 64 << 20

// planKey derives the canonical cache key of a (array, generation config)
// pair: the SHA-256 of the array's v1 wire encoding plus the fingerprint of
// every option that can change the generated vectors. Worker counts and
// progress callbacks are deliberately excluded — results are bit-identical
// across worker counts, so they must share a cache entry.
func planKey(a *Array, cfg genConfig) (string, error) {
	var buf bytes.Buffer
	if err := EncodeArray(&buf, a); err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	fmt.Fprintf(h, "\x00direct=%t block=%d skipLeak=%t path=%d cut=%d v=%d",
		cfg.direct, cfg.blockSize, cfg.skipLeak,
		int(cfg.pathEngine), int(cfg.cutEngine), CodecVersion)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// wirePlan is a generated plan together with its v1 wire encoding — the
// exact bytes fpvad serves from /plan, encoded once when the solve
// finished (nil on a service that caches nothing). It is the value of
// both plan-lookup tiers.
type wirePlan struct {
	plan *Plan
	wire []byte
}

// wireCost charges a memory-tier entry its wire length, so the byte
// budget measures real payload, not Go object overhead.
func wireCost(p wirePlan) int64 { return int64(len(p.wire)) }

// The two-tier plan lookup behind generate jobs has three operations:
//
//   - memory get: s.cache.get under s.mu, in runGenerate;
//   - disk load: loadPlan, inside the key's flight;
//   - put: putPlan, after a fresh solve.
//
// A hit from either tier takes the same path (Job.serveHit).

// loadPlan is the disk tier: it reads key from the durable store, decodes
// it and promotes it to memory. A plan solved before the last restart (or
// evicted from memory) is served checksum-verified and bit-identical, with
// no solver slot consumed; concurrent identical submissions share the
// flight, so the disk sees one read however many clients ask.
func (s *Service) loadPlan(key string) (wirePlan, bool) {
	if s.store == nil {
		return wirePlan{}, false
	}
	wire, ok := s.store.Get(key)
	if !ok {
		return wirePlan{}, false
	}
	plan, err := DecodePlan(bytes.NewReader(wire))
	if err != nil {
		// Verified bytes that fail to decode mean codec drift, not disk
		// corruption; the flight solves fresh and overwrites the entry.
		return wirePlan{}, false
	}
	hit := wirePlan{plan: plan, wire: wire}
	s.mu.Lock()
	s.cache.put(key, hit)
	s.mu.Unlock()
	return hit, true
}

// putPlan records a solved plan in both tiers: memory under the lock, then
// a write-through to disk outside it, so disk latency (or a store probing
// a sick disk) never stalls submissions and stats.
func (s *Service) putPlan(key string, p wirePlan) {
	if p.wire == nil {
		return
	}
	s.mu.Lock()
	s.cache.put(key, p)
	s.mu.Unlock()
	if s.store != nil {
		s.store.Put(key, p.wire)
	}
}

// phaseEvents is the progress sequence of a successful solve under cfg:
// flow paths, cut-sets, then leakage unless skipped, each started then
// finished — what core.Generate emits in-process and the solver worker
// forwards. Cache hits replay it, so cached and cold callers observe the
// same sequence without the cache storing any events.
func phaseEvents(cfg genConfig) []Event {
	phases := []Phase{PhaseFlowPaths, PhaseCutSets, PhaseLeakage}
	if cfg.skipLeak {
		phases = phases[:2]
	}
	events := make([]Event, 0, 2*len(phases))
	for _, ph := range phases {
		events = append(events, Event{Kind: PhaseStarted, Phase: ph}, Event{Kind: PhaseFinished, Phase: ph})
	}
	return events
}

// lru is a string-keyed least-recently-used map with a cost budget: each
// value is charged cost(value), and put evicts from the cold end until the
// total fits. It is not goroutine-safe; the owning Service serializes
// access under its mutex.
type lru[V any] struct {
	capCost, total int64
	cost           func(V) int64
	index          map[string]*lruEntry[V]
	root           lruEntry[V] // sentinel: root.next is the most recently used
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

func newLRU[V any](capCost int64, cost func(V) int64) *lru[V] {
	c := &lru[V]{capCost: max(capCost, 0), cost: cost, index: make(map[string]*lruEntry[V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// get returns the value under key, bumping it to most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	e, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// put inserts (or refreshes) key. A value costing nothing or more than the
// whole budget is not kept.
func (c *lru[V]) put(key string, v V) {
	size := c.cost(v)
	if size <= 0 || size > c.capCost {
		return
	}
	e, ok := c.index[key]
	if ok {
		c.total -= c.cost(e.val)
		e.val = v
	} else {
		e = &lruEntry[V]{key: key, val: v}
		c.index[key] = e
	}
	c.total += size
	c.moveToFront(e)
	for c.total > c.capCost {
		old := c.root.prev
		c.unlink(old)
		delete(c.index, old.key)
		c.total -= c.cost(old.val)
	}
}

// len returns the number of entries.
func (c *lru[V]) len() int { return len(c.index) }

func (c *lru[V]) unlink(e *lruEntry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// moveToFront links e (unlinking it first unless it is new) right after
// the sentinel.
func (c *lru[V]) moveToFront(e *lruEntry[V]) {
	if e.prev != nil {
		c.unlink(e)
	}
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}
