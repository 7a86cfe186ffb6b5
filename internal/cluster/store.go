package cluster

import (
	"bufio"
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Entry is one replicated plan: the full canonical request key and the
// serialized plan bytes. Only COMPLETE plans belong in the store — a
// complete plan is a deterministic function of its canonical key (the
// solvers are bit-reproducible and served plans zero their wall-clock
// field), which is what makes cross-replica byte-identity a testable
// invariant. Degraded plans are deadline-dependent and stay in each
// process's local LRU.
type Entry struct {
	Key  string `json:"key"`
	Plan []byte `json:"plan"`
	// BornUnixNano is neither written nor read any more. It is kept only
	// so store logs from earlier releases, which carry it, still open:
	// the log decoder rejects unknown fields.
	BornUnixNano int64 `json:"born_unix_nano,omitempty"`
}

// Wire caps: a sync message or log line exceeding these is rejected at
// decode, before any allocation proportional to the claimed size.
const (
	// MaxKeyBytes bounds one canonical request key (canonical platform
	// JSON for 256 cores with per-core scales is ~10 KiB; 64 KiB is
	// generous headroom).
	MaxKeyBytes = 64 << 10
	// MaxPlanBytes bounds one serialized plan (mirrors the server's 1 MiB
	// request-body cap).
	MaxPlanBytes = 1 << 20
	// MaxSyncEntries bounds the entries in one sync message.
	MaxSyncEntries = 1 << 17
)

// Validate checks the structural invariants the store and every network
// decode path enforce.
func (e Entry) Validate() error {
	if e.Key == "" {
		return errors.New("cluster: entry has an empty key")
	}
	if len(e.Key) > MaxKeyBytes {
		return fmt.Errorf("cluster: entry key of %d bytes exceeds the %d cap", len(e.Key), MaxKeyBytes)
	}
	if len(e.Plan) == 0 {
		return fmt.Errorf("cluster: entry %q has no plan bytes", shortKey(e.Key))
	}
	if len(e.Plan) > MaxPlanBytes {
		return fmt.Errorf("cluster: entry %q plan of %d bytes exceeds the %d cap", shortKey(e.Key), len(e.Plan), MaxPlanBytes)
	}
	return nil
}

func shortKey(k string) string {
	if len(k) > 32 {
		return k[:32] + "…"
	}
	return k
}

// Store is the replicated plan store: a mutex-guarded map with
// insertion-order (FIFO) eviction at cap, safe for concurrent use.
// Plans are immutable: Put keeps the incumbent when the key already
// exists (first-write-wins — complete plans for the same key are
// byte-identical by construction, so overwriting buys nothing and
// losing that property should be loud in tests, not silently papered
// over). FIFO rather than LRU because the store is the replication
// substrate and has to hold the fleet's working set deterministically.
// The server reads complete plans straight from it (no LRU in front), so
// a complete plan stays servable from the cache only while the FIFO cap
// keeps it.
//
// A store opened with NewFileStore also keeps an append-only log, so a
// restarted replica recovers its plans without a peer. One JSON document
// per line:
//
//	{"format":"thermosc-planstore","version":1,"cap":4096}   (header)
//	{"key":"…","plan":"<base64>"}                             (one per accepted Put)
//
// An accepted Put is appended and fsynced BEFORE the entry becomes
// visible, so a Put that returned true survives a crash. Eviction is
// memory-only: reopening replays the lines in order through Put, which
// rebuilds the exact end state, eviction order included, and then
// compacts the log to the entries the store keeps. A torn final line
// (the crash landed mid-write) is truncated away with the preceding
// state intact; corruption anywhere ELSE is a hard error — a mid-file
// bad line means the log was edited or the disk lied, and serving from
// a silently-partial store would break the fleet's byte-identity
// invariant.
type Store struct {
	mu    sync.Mutex // guards order and items; never held across disk I/O
	cap   int
	order *list.List // front = oldest
	items map[string]*list.Element

	// logMu serializes appends and Close, so readers never wait on an
	// fsync. log is nil without a log; it is set before the store is
	// shared and never replaced. logEnd is the log's size after the last
	// good append.
	logMu  sync.Mutex
	log    *os.File
	logEnd int64
	closed bool
}

type storeEntry struct{ e Entry }

// DefaultStoreCap is the entry cap used when a store is built with
// cap <= 0.
const DefaultStoreCap = 4096

// NewMemStore builds a store without a log holding at most capacity
// entries (capacity <= 0 selects DefaultStoreCap).
func NewMemStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCap
	}
	return &Store{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// NewFileStore opens (or creates) the store whose log is at path, with
// the given capacity (capacity <= 0 selects DefaultStoreCap). An
// existing log is replayed; its recorded capacity is informational —
// the caller's capacity wins, as it does for a store without a log.
func NewFileStore(path string, capacity int) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening plan store %s: %w", path, err)
	}
	s := NewMemStore(capacity)
	lines, err := s.replay(f)
	if err == nil && lines > s.Len() {
		f, err = s.compact(f, path)
	}
	if err == nil {
		if s.logEnd, err = f.Seek(0, io.SeekCurrent); err != nil {
			err = fmt.Errorf("cluster: seeking plan store log: %w", err)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	s.log = f
	return s, nil
}

// The log header's format name and line-layout version.
const (
	logFormat  = "thermosc-planstore"
	logVersion = 1
)

type logHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Cap     int    `json:"cap"`
}

// replay reads the log into the store through Put, truncates a torn
// tail, writes the header into a fresh log, and leaves f positioned for
// appends. It returns how many entry lines the log keeps.
func (s *Store) replay(f *os.File) (int, error) {
	r := bufio.NewReaderSize(f, 1<<20)
	var good int64 // end of the last complete line
	lines := 0
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A non-empty line here lacks its '\n': a torn write, which
			// is dropped even when it parses.
			break
		}
		if err != nil {
			return 0, fmt.Errorf("cluster: reading plan store log: %w", err)
		}
		if good == 0 {
			var hdr logHeader
			if jerr := strictUnmarshal(line, &hdr); jerr != nil || hdr.Format != logFormat || hdr.Version != logVersion {
				return 0, fmt.Errorf("cluster: plan store log has a bad header (format %q version %d): %v", hdr.Format, hdr.Version, jerr)
			}
		} else {
			var e Entry
			jerr := strictUnmarshal(line, &e)
			if jerr == nil {
				jerr = e.Validate()
			}
			if jerr != nil {
				return 0, fmt.Errorf("cluster: plan store log line %d is corrupt: %v", lines+2, jerr)
			}
			s.Put(e) // replay = the live Put sequence (duplicates and evictions included)
			lines++
		}
		good += int64(len(line))
	}
	if err := f.Truncate(good); err != nil {
		return 0, fmt.Errorf("cluster: truncating torn plan store tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return 0, fmt.Errorf("cluster: seeking plan store log: %w", err)
	}
	if good > 0 {
		return lines, nil
	}
	// An empty log, or the crash hit the header write: start over.
	if _, err := f.Write(s.header()); err != nil {
		return 0, fmt.Errorf("cluster: writing plan store header: %w", err)
	}
	return 0, f.Sync()
}

// compact rewrites the log as the header plus the live entries in FIFO
// order, so disk use and replay time follow the store's size, not its
// history. The rewrite goes to a sibling file, which is fsynced and
// renamed over the log: the rename is the commit point. A failure
// before it leaves the old log, still valid, in place and in use, to be
// compacted at the next open; a sibling left by an interrupted
// compaction is overwritten. After the rename appends go to the new
// file, and a failed directory fsync fails the open, because the rename
// might not survive a crash.
func (s *Store) compact(old *os.File, path string) (*os.File, error) {
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return old, nil
	}
	w := bufio.NewWriter(f)
	_, _ = w.Write(s.header()) // a write error sticks and surfaces at Flush
	for el := s.order.Front(); el != nil; el = el.Next() {
		_, _ = w.Write(logLine(el.Value.(*storeEntry).e))
	}
	err = w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return old, nil
	}
	old.Close()
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = errors.Join(dir.Sync(), dir.Close())
	}
	if err != nil {
		return f, fmt.Errorf("cluster: syncing plan store directory: %w", err)
	}
	return f, nil
}

func (s *Store) header() []byte {
	b, _ := json.Marshal(logHeader{Format: logFormat, Version: logVersion, Cap: s.cap}) // cannot fail: strings and ints
	return append(b, '\n')
}

func logLine(e Entry) []byte {
	b, _ := json.Marshal(e) // cannot fail: strings, bytes and an int
	return append(b, '\n')
}

// strictUnmarshal decodes one log line rejecting unknown fields and
// trailing garbage (mirrors DecodeSyncRequest's strictness).
func strictUnmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data on log line")
	}
	return nil
}

// Cap returns the store's entry capacity (the FIFO eviction bound).
func (s *Store) Cap() int { return s.cap }

// Get returns the entry for key, if present.
func (s *Store) Get(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		return el.Value.(*storeEntry).e, true
	}
	return Entry{}, false
}

// Put inserts an entry and reports whether it was newly added. Invalid
// entries and keys already present return false (first write wins).
// With a log, an accepted entry is on disk before it becomes visible; a
// failed append, or a Put after Close, stores nothing and returns false,
// and gossip re-delivers the entry later. A failed append leaves the log
// as it was before it, so later appends and the next open still work.
func (s *Store) Put(e Entry) bool {
	if e.Validate() != nil {
		return false
	}
	if s.log != nil {
		s.logMu.Lock()
		defer s.logMu.Unlock()
		if _, dup := s.Get(e.Key); dup || s.closed || s.appendLog(e) != nil {
			return false // a duplicate writes no log line
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[e.Key]; ok {
		return false
	}
	// Detach the plan bytes from the caller's buffer — entries are
	// immutable once stored.
	e.Plan = append([]byte(nil), e.Plan...)
	s.items[e.Key] = s.order.PushBack(&storeEntry{e: e})
	for s.order.Len() > s.cap {
		oldest := s.order.Front()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*storeEntry).e.Key)
	}
	return true
}

// appendLog writes and fsyncs e's line at logEnd. When the write or the
// fsync fails, the line may be partly on disk: the log is truncated back
// to logEnd, and the offset seeks back with it (the log is not opened
// O_APPEND), so the next line does not follow a partial one. If that
// fails too, the log is closed and every later Put returns false, as
// after Close.
func (s *Store) appendLog(e Entry) error {
	line := logLine(e)
	_, err := s.log.Write(line)
	if err == nil {
		err = s.log.Sync()
	}
	if err == nil {
		s.logEnd += int64(len(line))
		return nil
	}
	rerr := s.log.Truncate(s.logEnd)
	if rerr == nil {
		_, rerr = s.log.Seek(s.logEnd, io.SeekStart)
	}
	if rerr != nil {
		s.closed = true
		s.log.Close()
		return errors.Join(err, rerr)
	}
	return err
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Entries returns every entry sorted by key (the sync source of truth).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeEntry).e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Keys returns every stored key in FIFO order (the pull an
// anti-entropy round sends).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*storeEntry).e.Key)
	}
	return keys
}

// Close fsyncs and closes the log; without a log it does nothing. Puts
// to a store with a log return false afterwards, and reads keep serving
// from memory (a draining server may still answer).
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.log.Sync(); err != nil {
		s.log.Close()
		return err
	}
	return s.log.Close()
}
