// Package cluster is the fleet layer of the planning service: a
// consistent-hash ring that assigns every canonical request key a single
// owning replica, a replicated plan store with an optional crash-safe
// log, a gossip-style anti-entropy sync protocol (also the store's
// export and import), and an open-loop load generator that drives a
// cluster to soak-test scale.
//
// Everything here is deliberately deterministic: the ring hashes with
// SHA-256 (no process-seeded map iteration leaks into placement), store
// entries and sync replies are sorted by key, and the load generator is
// seed-pinned — so cluster tests can assert exact invariants instead of
// probabilistic ones.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-node virtual point count used when a
// ring is built with vnodes <= 0. 64 points per node keeps the key-share
// spread of a small cluster within ~2x (see TestRingBalance) while the
// ring stays tiny enough to rebuild on every membership change.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over node identifiers
// (replica base URLs in the serving layer). Each node contributes
// `vnodes` virtual points at deterministic hash positions; a key is
// owned by the node whose virtual point follows the key's hash
// clockwise. Placement depends only on the node set and vnodes — never
// on insertion order — so every replica computes the same owner for
// every key.
type Ring struct {
	vnodes int
	nodes  []string // sorted, deduplicated
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// hash64 is the ring's placement hash: the first 8 bytes of SHA-256,
// big-endian. SHA-256 (rather than FNV) keeps virtual points uniformly
// spread even for adversarially similar node names like
// "http://10.0.0.1:8080" vs "http://10.0.0.2:8080".
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given nodes. Nodes are deduplicated
// and sorted; empty node names are dropped. vnodes <= 0 selects
// DefaultVirtualNodes.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, nodes: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit hash collision between virtual points is vanishingly
		// rare but must not make placement order-dependent: break ties on
		// the node name.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node that owns key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	// First virtual point clockwise from the key's hash; wrap to the
	// ring's first point past the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// OwnerSkipping returns the node that owns key in the LIVE VIEW of the
// ring: the first node clockwise of the key's hash for which down
// returns false. It returns "" on an empty ring or when every member is
// down.
//
// Skipping a down node's virtual points while scanning is exactly
// equivalent to rebuilding the ring without that node: removal deletes
// the node's points and leaves the remaining (hash, node)-sorted order
// intact, so the first surviving point clockwise is the same either
// way. TestRingOwnerSkippingEqualsRemoval pins this equivalence — it is
// what keeps health-aware routing deterministic and loop-free without
// any replica agreeing on membership.
func (r *Ring) OwnerSkipping(key string, down func(node string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	for off := 0; off < len(r.points); off++ {
		p := r.points[(start+off)%len(r.points)]
		if down == nil || !down(p.node) {
			return p.node
		}
	}
	return ""
}

// Nodes returns the ring's membership in sorted order (a copy).
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// WithoutNode returns a new ring with node removed (the receiver is
// unchanged).
func (r *Ring) WithoutNode(node string) *Ring {
	kept := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			kept = append(kept, n)
		}
	}
	return NewRing(kept, r.vnodes)
}
