package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// entryFormat / entryVersion stamp every entry header; a future layout
// change bumps the version and old entries are quarantined, not
// misread.
const (
	entryFormat  = "fpva.store"
	entryVersion = 1
)

// Default degraded-mode probe backoff bounds (see Options).
const (
	DefaultBackoffMin = 1 * time.Second
	DefaultBackoffMax = 2 * time.Minute
)

// maxHeaderBytes bounds the JSON header line of an entry file.
const maxHeaderBytes = 4096

// Options configures Open. Dir is required; everything else has a
// default. FS and Now exist for fault-injection and clock-control in
// tests.
type Options struct {
	// Dir is the store's root directory, created if absent.
	Dir string
	// CapBytes is the LRU byte budget over payload bytes (<= 0 means
	// unlimited). A payload larger than the whole budget is not stored.
	CapBytes int64
	// FS overrides the filesystem (default OSFS()).
	FS FS
	// Now overrides the clock used for probe backoff (default time.Now).
	Now func() time.Time
	// BackoffMin / BackoffMax bound the degraded-mode re-probe interval
	// (defaults DefaultBackoffMin / DefaultBackoffMax). The interval
	// starts at the minimum and doubles on every failed probe.
	BackoffMin, BackoffMax time.Duration
}

// Stats is a point-in-time snapshot of the store's counters. The JSON
// tags are its wire names: fpvad serves this record verbatim as the
// "store" section of /v1/stats.
type Stats struct {
	// Mode is "ok" or "degraded"; Reason names the error that tripped a
	// degraded store ("" otherwise).
	Mode   string `json:"mode"`
	Reason string `json:"reason,omitempty"`

	// Entries / Bytes / CapBytes describe current occupancy (payload
	// bytes, excluding headers and journal).
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	CapBytes int64 `json:"capBytes"`

	// Hits / Misses count Get outcomes (a degraded Get is a miss).
	Hits   int `json:"hits"`
	Misses int `json:"misses"`

	// Writes counts entries durably stored; WriteErrors counts failed
	// write attempts (each trips degraded mode); SkippedWrites counts
	// Puts dropped while degraded between probes.
	Writes        int `json:"writes"`
	WriteErrors   int `json:"writeErrors"`
	SkippedWrites int `json:"skippedWrites"`

	// ReadErrors counts I/O failures reading an entry (these trip
	// degraded mode); Quarantined counts torn or corrupt entries moved
	// aside; Evictions counts LRU byte-budget evictions.
	ReadErrors  int `json:"readErrors"`
	Quarantined int `json:"quarantined"`
	Evictions   int `json:"evictions"`

	// Trips / Recoveries count transitions into and out of degraded
	// memory-only mode.
	Trips      int `json:"trips"`
	Recoveries int `json:"recoveries"`
}

// entry is one resident key in the LRU index. pins counts in-flight
// readers: a pinned entry is never evicted, so a Get that is streaming
// an entry off disk cannot have the file unlinked under it.
type entry struct {
	key  string
	size int64
	pins int
}

// header is the first line of every entry file.
type header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Key     string `json:"key"`
	Len     int64  `json:"len"`
	SHA256  string `json:"sha256"`
}

// errCorrupt classifies verification failures (torn write, bit flip,
// wrong key) as distinct from live I/O errors: corruption quarantines
// the entry, an I/O error trips degraded mode.
var errCorrupt = errors.New("store: corrupt entry")

// Store is an on-disk content-addressed byte cache with an LRU byte
// budget. It is safe for concurrent use. See the package comment for
// the layout and crash-safety contract.
type Store struct {
	dir        string
	capBytes   int64
	fs         FS
	now        func() time.Time
	backoffMin time.Duration
	backoffMax time.Duration

	mu           sync.Mutex
	init         bool
	journal      File // open append handle; nil while degraded or before init
	journalLines int
	ll           *list.List // front = most recently used; values are *entry
	index        map[string]*list.Element
	bytes        int64
	qseq         int // quarantine filename suffix, for repeat offenders

	degraded  bool
	reason    string
	backoff   time.Duration
	nextProbe time.Time

	st Stats // counters only; occupancy and mode are filled by Stats()
}

// Open opens (or creates) the store rooted at o.Dir. Open never fails:
// if the directory cannot be prepared — unreachable disk, permission
// trouble — the store comes up in degraded memory-only mode, reports
// why through Stats, and re-probes with backoff as writes arrive, so a
// daemon with a sick cache disk still boots and serves.
func Open(o Options) *Store {
	s := &Store{
		dir:        o.Dir,
		capBytes:   o.CapBytes,
		fs:         o.FS,
		now:        o.Now,
		backoffMin: o.BackoffMin,
		backoffMax: o.BackoffMax,
		ll:         list.New(),
		index:      make(map[string]*list.Element),
	}
	if s.fs == nil {
		s.fs = OSFS()
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.backoffMin <= 0 {
		s.backoffMin = DefaultBackoffMin
	}
	if s.backoffMax < s.backoffMin {
		s.backoffMax = DefaultBackoffMax
	}
	s.mu.Lock()
	if err := s.initLocked(); err != nil {
		s.tripLocked("open", err)
	}
	s.mu.Unlock()
	return s
}

// Get returns the payload stored under key. A missing, degraded,
// corrupt or unreadable entry is a miss — the store never serves bytes
// that fail verification, and a degraded store does no disk I/O at all.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	s.mu.Lock()
	if !s.init || s.degraded {
		s.st.Misses++
		s.mu.Unlock()
		return nil, false
	}
	el, ok := s.index[key]
	if !ok {
		s.st.Misses++
		s.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*entry)
	e.pins++ // hold the file in place while we read it
	s.mu.Unlock()

	payload, err := s.readEntry(key)

	s.mu.Lock()
	e.pins--
	if err != nil {
		if errors.Is(err, errCorrupt) {
			s.quarantineLocked(key)
		} else {
			s.st.ReadErrors++
			s.tripLocked("read "+key, err)
		}
		s.mu.Unlock()
		return nil, false
	}
	s.st.Hits++
	if el2, ok := s.index[key]; ok { // may have been quarantined by a racing reader
		s.ll.MoveToFront(el2)
		s.appendJournalLocked("t " + key)
		s.maybeCompactLocked() // read-heavy workloads journal touches too
	}
	s.mu.Unlock()
	return payload, true
}

// Put stores val under key if absent. The write is atomic (temp file,
// fsync, rename), so a crash at any instant leaves either the complete
// entry or debris in tmp/ that the next Open clears. Errors do not
// surface to the caller: a failed write trips degraded mode and the
// store becomes a fast no-op until a backoff probe succeeds.
func (s *Store) Put(key string, val []byte) {
	if !validKey(key) || len(val) == 0 {
		return
	}
	if s.capBytes > 0 && int64(len(val)) > s.capBytes {
		return
	}
	s.mu.Lock()
	if s.degraded || !s.init {
		if s.now().Before(s.nextProbe) {
			s.st.SkippedWrites++
			s.mu.Unlock()
			return
		}
		// This write is the probe. If the directory never came up (or the
		// disk reappeared), rebuild the on-disk state first.
		if !s.init {
			if err := s.initLocked(); err != nil {
				s.tripLocked("open", err)
				s.mu.Unlock()
				return
			}
		}
	}
	if el, ok := s.index[key]; ok {
		s.ll.MoveToFront(el)
		s.appendJournalLocked("t " + key) // keep the durable LRU order honest
		s.maybeCompactLocked()
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	err := s.writeEntry(key, val)

	s.mu.Lock()
	if err != nil {
		s.st.WriteErrors++
		s.tripLocked("write "+key, err)
		s.mu.Unlock()
		return
	}
	if s.degraded {
		s.recoverLocked()
	}
	if el, ok := s.index[key]; ok {
		// A concurrent Put of the same key beat us; both wrote identical
		// bytes (content addressing), so the second rename was a no-op.
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.index[key] = s.ll.PushFront(&entry{key: key, size: int64(len(val))})
	s.bytes += int64(len(val))
	s.st.Writes++
	s.appendJournalLocked("p " + key + " " + strconv.Itoa(len(val)))
	victims := s.evictLocked()
	s.maybeCompactLocked()
	s.mu.Unlock()
	for _, k := range victims {
		s.fs.Remove(s.planPath(k))
	}
}

// Stats returns a snapshot of the store's counters and mode.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	st.CapBytes = s.capBytes
	if s.degraded {
		st.Mode = "degraded"
		st.Reason = s.reason
	} else {
		st.Mode = "ok"
	}
	return st
}

// Close releases the journal handle. The store's durable state needs no
// shutdown step — every mutation was already atomic.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}

// ---- paths and keys ----

func (s *Store) plansDir() string      { return filepath.Join(s.dir, "plans") }
func (s *Store) tmpDir() string        { return filepath.Join(s.dir, "tmp") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }
func (s *Store) journalPath() string   { return filepath.Join(s.dir, "journal") }
func (s *Store) planPath(key string) string {
	return filepath.Join(s.plansDir(), key+".plan")
}

// validKey accepts lowercase-hex digests (planKey emits 64 hex chars).
// Anything else — in particular anything that could traverse paths —
// is rejected outright.
func validKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ---- degraded mode ----

// tripLocked switches the store into (or keeps it in) degraded
// memory-only mode: reason recorded, probe scheduled with doubling
// backoff, journal handle dropped so a recovered store reopens it
// fresh.
func (s *Store) tripLocked(op string, err error) {
	if s.degraded {
		s.backoff *= 2
		if s.backoff > s.backoffMax {
			s.backoff = s.backoffMax
		}
	} else {
		s.degraded = true
		s.backoff = s.backoffMin
		s.st.Trips++
	}
	s.reason = op + ": " + err.Error()
	s.nextProbe = s.now().Add(s.backoff)
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
}

// recoverLocked leaves degraded mode after a successful probe write.
func (s *Store) recoverLocked() {
	s.degraded = false
	s.reason = ""
	s.backoff = 0
	s.nextProbe = time.Time{}
	s.st.Recoveries++
}

// ---- entry I/O ----

// writeEntry stages header+payload in tmp/, fsyncs, and renames into
// place. Any failure removes the temp file and reports the error; the
// caller decides whether that trips degraded mode.
func (s *Store) writeEntry(key string, val []byte) error {
	f, err := s.fs.CreateTemp(s.tmpDir(), key+".*")
	if err != nil {
		return err
	}
	tmpPath := f.Name()
	sum := sha256.Sum256(val)
	hdr, err := json.Marshal(header{
		Format: entryFormat, Version: entryVersion,
		Key: key, Len: int64(len(val)), SHA256: hex.EncodeToString(sum[:]),
	})
	if err == nil {
		_, err = f.Write(append(hdr, '\n'))
	}
	if err == nil {
		_, err = f.Write(val)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmpPath, s.planPath(key))
	}
	if err != nil {
		s.fs.Remove(tmpPath)
		return err
	}
	return nil
}

// readEntry reads and verifies one entry. Verification failures return
// errCorrupt; everything else is a live I/O error.
func (s *Store) readEntry(key string) ([]byte, error) {
	f, err := s.fs.Open(s.planPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s: file missing", errCorrupt, key)
		}
		return nil, err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	payload, err := verifyEntry(key, b)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// verifyEntry checks the header line, length, and SHA-256 of one
// entry's raw bytes, returning the payload.
func verifyEntry(key string, b []byte) ([]byte, error) {
	idx := bytes.IndexByte(b, '\n')
	if idx < 0 || idx > maxHeaderBytes {
		return nil, fmt.Errorf("%w: %s: no header line", errCorrupt, key)
	}
	var h header
	if err := json.Unmarshal(b[:idx], &h); err != nil {
		return nil, fmt.Errorf("%w: %s: bad header: %v", errCorrupt, key, err)
	}
	if h.Format != entryFormat || h.Version != entryVersion || h.Key != key {
		return nil, fmt.Errorf("%w: %s: header mismatch", errCorrupt, key)
	}
	payload := b[idx+1:]
	if int64(len(payload)) != h.Len {
		return nil, fmt.Errorf("%w: %s: truncated: have %d bytes, header says %d",
			errCorrupt, key, len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", errCorrupt, key)
	}
	return payload, nil
}

// quarantineLocked moves a torn or corrupt entry out of the live set
// and into quarantine/ for postmortems (falling back to deletion, then
// to simply forgetting it, if the disk won't cooperate).
func (s *Store) quarantineLocked(key string) {
	if el, ok := s.index[key]; ok {
		s.bytes -= el.Value.(*entry).size
		s.ll.Remove(el)
		delete(s.index, key)
		s.appendJournalLocked("d " + key)
	}
	s.st.Quarantined++
	s.qseq++
	dst := filepath.Join(s.quarantineDir(), key+".plan."+strconv.Itoa(s.qseq))
	if err := s.fs.Rename(s.planPath(key), dst); err != nil {
		s.fs.Remove(s.planPath(key))
	}
}

// evictLocked unlinks LRU-tail entries from the index until the byte
// budget holds, skipping pinned entries (an in-flight reader is never
// evicted under). It returns the victims' keys; the caller removes the
// files after releasing the lock.
func (s *Store) evictLocked() []string {
	if s.capBytes <= 0 {
		return nil
	}
	var victims []string
	for el := s.ll.Back(); el != nil && s.bytes > s.capBytes; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.pins == 0 {
			s.ll.Remove(el)
			delete(s.index, e.key)
			s.bytes -= e.size
			s.st.Evictions++
			s.appendJournalLocked("d " + e.key)
			victims = append(victims, e.key)
		}
		el = prev
	}
	return victims
}

// ---- journal ----

// appendJournalLocked appends one op line, opening the handle on first
// use. Journal appends are not fsynced — losing recent LRU ordering to
// a crash is harmless (entries themselves are synced, and unjournaled
// files are adopted on Open) — but an append error still trips
// degraded mode: it is the cheapest early warning of a sick disk.
func (s *Store) appendJournalLocked(line string) {
	if s.journal == nil {
		f, err := s.fs.OpenAppend(s.journalPath())
		if err != nil {
			s.st.WriteErrors++
			s.tripLocked("journal open", err)
			return
		}
		s.journal = f
	}
	if _, err := io.WriteString(s.journal, line+"\n"); err != nil {
		s.st.WriteErrors++
		s.tripLocked("journal append", err)
		return
	}
	s.journalLines++
}

// maybeCompactLocked rewrites the journal as pure "p" lines once it
// outgrows the live index by 4x (plus slack), bounding replay work.
// The rewrite is itself atomic: temp file, sync, rename, reopen.
func (s *Store) maybeCompactLocked() {
	if s.journalLines <= 4*len(s.index)+64 {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.st.WriteErrors++
		s.tripLocked("journal compact", err)
	}
}

// compactLocked writes the index, LRU-oldest first, as a fresh journal.
// Replay pushes each "p" to the front, so oldest-first reproduces the
// exact LRU order.
func (s *Store) compactLocked() error {
	f, err := s.fs.CreateTemp(s.tmpDir(), "journal.*")
	if err != nil {
		return err
	}
	tmpPath := f.Name()
	var buf bytes.Buffer
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		buf.WriteString("p " + e.key + " " + strconv.FormatInt(e.size, 10) + "\n")
	}
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if s.journal != nil {
			s.journal.Close()
			s.journal = nil
		}
		err = s.fs.Rename(tmpPath, s.journalPath())
	}
	if err != nil {
		s.fs.Remove(tmpPath)
		return err
	}
	s.journalLines = len(s.index)
	// Reopen lazily on the next append.
	return nil
}

// ---- open-time recovery ----

// initLocked rebuilds the in-memory index from disk: directories
// ensured, crash debris in tmp/ cleared, the journal replayed, every
// on-disk entry's header verified (torn entries quarantined,
// unjournaled survivors adopted, journal ghosts dropped), the journal
// rewritten compact, and the byte budget re-enforced.
func (s *Store) initLocked() error {
	for _, d := range []string{s.dir, s.plansDir(), s.tmpDir(), s.quarantineDir()} {
		if err := s.fs.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	// Crash debris: temp files never renamed into place.
	if ents, err := s.fs.ReadDir(s.tmpDir()); err == nil {
		for _, de := range ents {
			s.fs.Remove(filepath.Join(s.tmpDir(), de.Name()))
		}
	}
	s.ll.Init()
	clear(s.index)
	s.bytes = 0

	// Replay the journal for LRU order and sizes. A torn final line
	// (crash mid-append) parses as garbage and is skipped.
	if f, err := s.fs.Open(s.journalPath()); err == nil {
		b, rerr := io.ReadAll(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		for _, line := range strings.Split(string(b), "\n") {
			fields := strings.Fields(line)
			if len(fields) < 2 || !validKey(fields[1]) {
				continue
			}
			key := fields[1]
			switch fields[0] {
			case "p":
				if len(fields) != 3 {
					continue
				}
				size, perr := strconv.ParseInt(fields[2], 10, 64)
				if perr != nil || size <= 0 {
					continue
				}
				if el, ok := s.index[key]; ok {
					s.bytes += size - el.Value.(*entry).size
					el.Value.(*entry).size = size
					s.ll.MoveToFront(el)
				} else {
					s.index[key] = s.ll.PushFront(&entry{key: key, size: size})
					s.bytes += size
				}
			case "t":
				if el, ok := s.index[key]; ok {
					s.ll.MoveToFront(el)
				}
			case "d":
				if el, ok := s.index[key]; ok {
					s.bytes -= el.Value.(*entry).size
					s.ll.Remove(el)
					delete(s.index, key)
				}
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	// Reconcile the replayed index against the directory. ReadDir
	// returns names sorted, so recovery order is deterministic.
	onDisk := make(map[string]bool)
	ents, err := s.fs.ReadDir(s.plansDir())
	if err != nil {
		return err
	}
	for _, de := range ents {
		name := de.Name()
		key, ok := strings.CutSuffix(name, ".plan")
		if !ok || !validKey(key) {
			continue
		}
		size, verr := s.verifyEntryHeader(key)
		if verr != nil {
			// Torn or foreign: out of the live set, into quarantine.
			s.quarantineLocked(key)
			continue
		}
		onDisk[key] = true
		if el, ok := s.index[key]; ok {
			if e := el.Value.(*entry); e.size != size {
				s.bytes += size - e.size
				e.size = size
			}
		} else {
			// Present but unjournaled: the crash hit between rename and
			// journal append. Adopt it at the cold end of the LRU.
			s.index[key] = s.ll.PushBack(&entry{key: key, size: size})
			s.bytes += size
		}
	}
	// Journal ghosts: logged but no file (a crash between eviction's
	// journal append and the unlink — or the reverse order, same cure).
	var ghosts []*list.Element
	for el := s.ll.Front(); el != nil; el = el.Next() {
		if !onDisk[el.Value.(*entry).key] {
			ghosts = append(ghosts, el)
		}
	}
	for _, el := range ghosts {
		e := el.Value.(*entry)
		s.bytes -= e.size
		s.ll.Remove(el)
		delete(s.index, e.key)
	}

	if err := s.compactLocked(); err != nil {
		return err
	}
	victims := s.evictLocked()
	for _, k := range victims {
		s.fs.Remove(s.planPath(k))
	}
	s.init = true
	return nil
}

// verifyEntryHeader checks an entry's header line and on-disk size
// without hashing the payload (the cheap open-time pass; the full
// checksum runs on every Get). It returns the payload length.
func (s *Store) verifyEntryHeader(key string) (int64, error) {
	f, err := s.fs.Open(s.planPath(key))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	head := make([]byte, maxHeaderBytes)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, err
	}
	head = head[:n]
	idx := bytes.IndexByte(head, '\n')
	if idx < 0 {
		return 0, fmt.Errorf("%w: %s: no header line", errCorrupt, key)
	}
	var h header
	if err := json.Unmarshal(head[:idx], &h); err != nil {
		return 0, fmt.Errorf("%w: %s: bad header: %v", errCorrupt, key, err)
	}
	if h.Format != entryFormat || h.Version != entryVersion || h.Key != key || h.Len <= 0 {
		return 0, fmt.Errorf("%w: %s: header mismatch", errCorrupt, key)
	}
	fi, err := s.fs.Stat(s.planPath(key))
	if err != nil {
		return 0, err
	}
	if fi.Size() != int64(idx+1)+h.Len {
		return 0, fmt.Errorf("%w: %s: truncated: file is %d bytes, want %d",
			errCorrupt, key, fi.Size(), int64(idx+1)+h.Len)
	}
	return h.Len, nil
}
