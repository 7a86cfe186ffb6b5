package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// The anti-entropy protocol. Replication is pull-push gossip over full
// key lists:
//
//  1. A sends B a SyncRequest carrying the Keys A stores.
//  2. B applies nothing yet; it answers with the Entries B has that A's
//     keys lack, and a Want list of keys A has that B lacks.
//  3. A stores the received entries, then (if Want was non-empty) sends
//     B a second SyncRequest carrying just those Entries; B stores them.
//
// One round therefore converges the PAIR in both directions with two
// messages. Replicas run rounds on a timer against peers in round-robin,
// so a 3-node cluster converges within two intervals of any write. Plans
// are deterministic per key, so two replicas that hold a key hold the
// same bytes and a round compares keys only; if the bytes ever differed
// (bit-rot, version skew), first-write-wins keeps each replica
// internally stable instead of flapping.
//
// The same messages export and import a store: a pull with an empty
// key list returns every entry, key-sorted, and a push of those entries
// loads them into another store.

// SyncRequest is one gossip message: a key list (pull phase), entries
// (push phase), or both.
type SyncRequest struct {
	// Keys are the keys the sender stores, in no particular order; the
	// receiver answers with what the sender is missing and asks for what
	// it lacks itself. Nil means "no pull" (a push-only message); an
	// EMPTY list is a real pull from an empty store and must survive the
	// wire — hence no omitempty (nil marshals as null, empty as []).
	Keys []string `json:"keys"`
	// Entries are pushed plans the receiver should store.
	Entries []Entry `json:"entries,omitempty"`
}

// SyncResponse answers one SyncRequest.
type SyncResponse struct {
	// Entries are the plans the receiver has and the sender's keys
	// lacked, sorted by key.
	Entries []Entry `json:"entries,omitempty"`
	// Want lists the sender's keys the receiver lacks, sorted; the
	// sender follows up with a push.
	Want []string `json:"want,omitempty"`
	// Applied is how many pushed entries were newly stored.
	Applied int `json:"applied"`
}

// DecodeSyncRequest strictly parses a gossip message: unknown fields,
// trailing data, oversized key/entry lists, and invalid keys or entries
// are all errors, and decoding never panics on arbitrary input.
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
	if len(req.Keys) > MaxSyncEntries {
		return SyncRequest{}, fmt.Errorf("cluster: sync pull of %d keys exceeds the %d cap", len(req.Keys), MaxSyncEntries)
	}
	if len(req.Entries) > MaxSyncEntries {
		return SyncRequest{}, fmt.Errorf("cluster: sync push of %d entries exceeds the %d cap", len(req.Entries), MaxSyncEntries)
	}
	for _, k := range req.Keys {
		if k == "" || len(k) > MaxKeyBytes {
			return SyncRequest{}, errors.New("cluster: sync pull carries a malformed key")
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
	if req.Keys == nil {
		return resp
	}
	has := make(map[string]bool, len(req.Keys))
	for _, k := range req.Keys {
		if _, ok := st.Get(k); !ok && !has[k] {
			resp.Want = append(resp.Want, k)
		}
		has[k] = true
	}
	for _, e := range st.Entries() { // already key-sorted
		if !has[e.Key] {
			resp.Entries = append(resp.Entries, e)
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
