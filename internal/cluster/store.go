package cluster

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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
	// so snapshots, sync messages and file-store logs from earlier
	// releases, which carry it, still decode: the decoders reject unknown
	// fields.
	BornUnixNano int64 `json:"born_unix_nano,omitempty"`
}

// Wire caps: a snapshot or sync payload exceeding these is rejected at
// decode, before any allocation proportional to the claimed size.
const (
	// MaxKeyBytes bounds one canonical request key (canonical platform
	// JSON for 256 cores with per-core scales is ~10 KiB; 64 KiB is
	// generous headroom).
	MaxKeyBytes = 64 << 10
	// MaxPlanBytes bounds one serialized plan (mirrors the server's 1 MiB
	// request-body cap).
	MaxPlanBytes = 1 << 20
	// MaxSyncEntries bounds the entries in one snapshot or sync message.
	MaxSyncEntries = 1 << 17
)

// Validate checks the structural invariants every store implementation
// and every network decode path enforces.
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

// PlanHash is the content fingerprint gossip digests compare: SHA-256
// of the plan bytes, truncated to 16 hex characters. Deterministic
// plans make hash equality equivalent to byte equality in practice.
func PlanHash(plan []byte) string {
	sum := sha256.Sum256(plan)
	return hex.EncodeToString(sum[:8])
}

// PlanStore is the pluggable replicated plan store. Implementations
// must be safe for concurrent use and must treat plans as immutable:
// Put keeps the incumbent when the key already exists (first-write-wins
// — complete plans for the same key are byte-identical by construction,
// so overwriting buys nothing and losing that property should be loud
// in tests, not silently papered over).
type PlanStore interface {
	// Get returns the entry for key, if present.
	Get(key string) (Entry, bool)
	// Put inserts an entry and reports whether it was newly added.
	// Invalid entries and duplicate keys return false.
	Put(e Entry) bool
	// Len returns the number of stored entries.
	Len() int
	// Entries returns every entry sorted by key (the snapshot and sync
	// source of truth).
	Entries() []Entry
	// Digest returns the key → PlanHash map anti-entropy rounds compare.
	Digest() map[string]string
	// Cap returns the store's entry capacity (FIFO eviction bound).
	Cap() int
}

// MemStore is the in-memory PlanStore: a mutex-guarded map with
// insertion-order (FIFO) eviction at cap. FIFO rather than LRU because
// the store is the replication substrate and has to hold the fleet's
// working set deterministically. The server reads complete plans
// straight from it (no LRU in front), so a complete plan stays servable
// from the cache only while the FIFO cap keeps it.
type MemStore struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = oldest
	items map[string]*list.Element
}

type storeEntry struct{ e Entry }

// DefaultStoreCap is the entry cap used when NewMemStore is given
// cap <= 0.
const DefaultStoreCap = 4096

// NewMemStore builds an in-memory store holding at most cap entries
// (cap <= 0 selects DefaultStoreCap).
func NewMemStore(capacity int) *MemStore {
	if capacity <= 0 {
		capacity = DefaultStoreCap
	}
	return &MemStore{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Cap returns the store's entry capacity.
func (s *MemStore) Cap() int { return s.cap }

func (s *MemStore) Get(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		return el.Value.(*storeEntry).e, true
	}
	return Entry{}, false
}

func (s *MemStore) Put(e Entry) bool {
	if e.Validate() != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[e.Key]; ok {
		return false // first write wins; see PlanStore
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

func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

func (s *MemStore) Entries() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeEntry).e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (s *MemStore) Digest() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := make(map[string]string, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry).e
		d[e.Key] = PlanHash(e.Plan)
	}
	return d
}

// SnapshotVersion is the warm-export format version. Decoders reject
// any other version loudly instead of guessing.
const SnapshotVersion = 1

// snapshot is the warm-export wire format: a versioned, key-sorted
// entry list. JSON (with base64 plan bytes) keeps the artifact
// greppable and the decode path strict.
type snapshot struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// EncodeSnapshot serializes the store's entries into the warm-export
// format. The output is canonical: entries sorted by key, so two
// converged replicas export byte-identical snapshots.
func EncodeSnapshot(st PlanStore) ([]byte, error) {
	return json.Marshal(snapshot{Version: SnapshotVersion, Entries: st.Entries()})
}

// DecodeSnapshot strictly parses a warm-export payload: unknown fields,
// trailing data, bad versions, invalid entries, oversized entry lists,
// and duplicate keys are all errors. It never panics on arbitrary input
// (FuzzPlanStoreSync proves it).
func DecodeSnapshot(b []byte) ([]Entry, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("cluster: decoding snapshot: %w", err)
	}
	if dec.More() {
		return nil, errors.New("cluster: trailing data after snapshot")
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("cluster: snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	if len(snap.Entries) > MaxSyncEntries {
		return nil, fmt.Errorf("cluster: snapshot of %d entries exceeds the %d cap", len(snap.Entries), MaxSyncEntries)
	}
	seen := make(map[string]bool, len(snap.Entries))
	for i, e := range snap.Entries {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: snapshot entry %d: %w", i, err)
		}
		if seen[e.Key] {
			return nil, fmt.Errorf("cluster: snapshot entry %d duplicates key %q", i, shortKey(e.Key))
		}
		seen[e.Key] = true
	}
	return snap.Entries, nil
}

// Restore decodes a warm-export payload into the store and returns how
// many entries were newly added (already-present keys keep their
// incumbent bytes).
func Restore(st PlanStore, b []byte) (int, error) {
	entries, err := DecodeSnapshot(b)
	if err != nil {
		return 0, err
	}
	added := 0
	for _, e := range entries {
		if st.Put(e) {
			added++
		}
	}
	return added, nil
}
