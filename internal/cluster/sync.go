package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// The anti-entropy protocol. Replication is pull-push gossip over full
// key digests:
//
//  1. A sends B a SyncRequest carrying A's Digest (key → plan hash).
//  2. B applies nothing yet; it answers with the Entries B has that A's
//     digest lacks, and a Want list of keys A has that B lacks.
//  3. A stores the received entries, then (if Want was non-empty) sends
//     B a second SyncRequest carrying just those Entries; B stores them.
//
// One round therefore converges the PAIR in both directions with two
// messages. Rounds are cheap — a digest is ~50 bytes per entry — so
// replicas run them on a timer against peers in round-robin, and a
// 3-node cluster converges within two intervals of any write. Plans are
// deterministic per key, so conflicting hashes for the same key cannot
// occur between honest replicas; if they ever do (bit-rot, version
// skew), first-write-wins keeps each replica internally stable and the
// divergence stays visible in the digests instead of flapping.
//
// The same messages export and import a store: a pull with an empty
// digest returns every entry, key-sorted, and a push of those entries
// loads them into another store.

// SyncRequest is one gossip message: a digest (pull phase), entries
// (push phase), or both.
type SyncRequest struct {
	// From identifies the sender (its ring node name); informational.
	From string `json:"from,omitempty"`
	// Digest is the sender's key → PlanHash map; the receiver answers
	// with what the sender is missing and asks for what it lacks itself.
	// Nil means "no pull" (a push-only message); an EMPTY map is a real
	// pull from an empty store and must survive the wire — hence no
	// omitempty (nil marshals as null, empty as {}).
	Digest map[string]string `json:"digest"`
	// Entries are pushed plans the receiver should store.
	Entries []Entry `json:"entries,omitempty"`
}

// SyncResponse answers one SyncRequest.
type SyncResponse struct {
	// Entries are the plans the receiver has and the sender's digest
	// lacked, sorted by key.
	Entries []Entry `json:"entries,omitempty"`
	// Want lists the keys in the sender's digest the receiver lacks,
	// sorted; the sender follows up with a push.
	Want []string `json:"want,omitempty"`
	// Applied is how many pushed entries were newly stored.
	Applied int `json:"applied"`
}

// DecodeSyncRequest strictly parses a gossip message: unknown fields,
// trailing data, oversized digests/entry lists, and invalid entries are
// all errors, and decoding never panics on arbitrary input.
func DecodeSyncRequest(b []byte) (SyncRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var req SyncRequest
	if err := dec.Decode(&req); err != nil {
		return SyncRequest{}, fmt.Errorf("cluster: decoding sync request: %w", err)
	}
	if dec.More() {
		return SyncRequest{}, errors.New("cluster: trailing data after sync request")
	}
	if len(req.Digest) > MaxSyncEntries {
		return SyncRequest{}, fmt.Errorf("cluster: sync digest of %d keys exceeds the %d cap", len(req.Digest), MaxSyncEntries)
	}
	if len(req.Entries) > MaxSyncEntries {
		return SyncRequest{}, fmt.Errorf("cluster: sync push of %d entries exceeds the %d cap", len(req.Entries), MaxSyncEntries)
	}
	for k, h := range req.Digest {
		if k == "" || len(k) > MaxKeyBytes || h == "" || len(h) > 64 {
			return SyncRequest{}, errors.New("cluster: sync digest carries a malformed key or hash")
		}
	}
	for i, e := range req.Entries {
		if err := e.Validate(); err != nil {
			return SyncRequest{}, fmt.Errorf("cluster: sync entry %d: %w", i, err)
		}
	}
	return req, nil
}

// HandleSync applies one gossip message against the local store and
// computes the reply. It is the pure protocol core — transport, auth,
// and counters live in the serving layer.
func HandleSync(st *Store, req SyncRequest) SyncResponse {
	var resp SyncResponse
	for _, e := range req.Entries {
		if st.Put(e) {
			resp.Applied++
		}
	}
	if req.Digest == nil {
		return resp
	}
	for _, e := range st.Entries() { // already key-sorted
		if _, ok := req.Digest[e.Key]; !ok {
			resp.Entries = append(resp.Entries, e)
		}
	}
	local := st.Digest()
	for k := range req.Digest {
		if _, ok := local[k]; !ok {
			resp.Want = append(resp.Want, k)
		}
	}
	sort.Strings(resp.Want)
	return resp
}

// MissingEntries returns the store's entries for the given keys (the
// push phase of a round), skipping keys the store no longer holds.
func MissingEntries(st *Store, keys []string) []Entry {
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		if e, ok := st.Get(k); ok {
			out = append(out, e)
		}
	}
	return out
}

// Converged reports whether two digests are identical — the
// anti-entropy fixed point.
func Converged(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, h := range a {
		if b[k] != h {
			return false
		}
	}
	return true
}
