package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	rng := rand.New(rand.NewSource(42))
	for i := range keys {
		// Canonical request keys are JSON blobs; approximate their shape
		// with structured strings plus some seeded entropy.
		keys[i] = fmt.Sprintf(`{"platform":{"rows":%d,"cols":%d},"tmax_c":%d,"nonce":%d}`,
			1+i%16, 1+i%7, 40+i%50, rng.Int63())
	}
	return keys
}

var ringNodes = []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"}

// Placement must be a pure function of the membership SET: node order,
// duplicates, and empties must not change any owner.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing(ringNodes, 128)
	shuffled := []string{ringNodes[2], ringNodes[0], "", ringNodes[1], ringNodes[0]}
	b := NewRing(shuffled, 128)
	if got, want := a.Size(), 3; got != want {
		t.Fatalf("ring size %d, want %d", got, want)
	}
	for _, k := range testKeys(1000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q depends on construction order: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
	for i, n := range a.Nodes() {
		if b.Nodes()[i] != n {
			t.Fatalf("membership differs: %v vs %v", a.Nodes(), b.Nodes())
		}
	}
}

// With 128 virtual points per node, 1k keys must spread across 3 nodes
// with the max share within 2x of the min share.
func TestRingBalance(t *testing.T) {
	r := NewRing(ringNodes, 128)
	counts := map[string]int{}
	keys := testKeys(1000)
	for _, k := range keys {
		owner := r.Owner(k)
		if !r.Contains(owner) {
			t.Fatalf("owner %q is not a ring member", owner)
		}
		counts[owner]++
	}
	if len(counts) != 3 {
		t.Fatalf("keys landed on %d of 3 nodes: %v", len(counts), counts)
	}
	minC, maxC := len(keys), 0
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC > 2*minC {
		t.Fatalf("imbalanced placement: shares %v (max %d > 2×min %d)", counts, maxC, minC)
	}
}

// Consistent hashing's defining property, exactly: adding a node only
// moves keys TO the new node; removing one only moves keys AWAY from
// it. The moved fraction must be near 1/n.
func TestRingChurnMovesOnlyExpectedKeys(t *testing.T) {
	keys := testKeys(1000)
	r3 := NewRing(ringNodes, 128)
	added := "http://10.0.0.4:8080"
	r4 := r3.WithNode(added)

	moved := 0
	for _, k := range keys {
		before, after := r3.Owner(k), r4.Owner(k)
		if before != after {
			if after != added {
				t.Fatalf("adding %q moved key to %q (not the new node)", added, after)
			}
			moved++
		}
	}
	// Expected share ≈ 1/4 of the keys; allow a wide deterministic band.
	if moved < 100 || moved > 450 {
		t.Fatalf("adding a 4th node moved %d/1000 keys (want ≈250)", moved)
	}

	back := r4.WithoutNode(added)
	for _, k := range keys {
		if back.Owner(k) != r3.Owner(k) {
			t.Fatalf("add+remove is not the identity for key %q", k)
		}
	}
	r2 := r3.WithoutNode(ringNodes[1])
	for _, k := range keys {
		before, after := r3.Owner(k), r2.Owner(k)
		if before == ringNodes[1] {
			if after == ringNodes[1] {
				t.Fatalf("removed node still owns key %q", k)
			}
		} else if before != after {
			t.Fatalf("removing %q moved key %q owned by %q", ringNodes[1], k, before)
		}
	}
}

// The live-view routing equivalence the self-healing layer rests on:
// OwnerSkipping with k down nodes must equal the owner on a ring with
// those k nodes REMOVED (WithoutNode applied k times), for every key.
// Point removal preserves the (hash, node)-sorted order of the
// surviving virtual points, so the equality is exact, not approximate.
func TestRingOwnerSkippingEqualsRemoval(t *testing.T) {
	keys := testKeys(500)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(seed)%4 // fleets of 2..5 nodes
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://10.1.%d.%d:8080", seed, i)
		}
		r := NewRing(nodes, 64)
		// Every subset of down nodes, including none and all.
		for mask := 0; mask < 1<<n; mask++ {
			down := make(map[string]bool)
			reduced := r
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					down[nodes[i]] = true
					reduced = reduced.WithoutNode(nodes[i])
				}
			}
			isDown := func(node string) bool { return down[node] }
			// Cheap shuffle of which keys we test per mask to keep the
			// subset sweep fast but seed-varied.
			for _, ki := range rng.Perm(len(keys))[:50] {
				k := keys[ki]
				got := r.OwnerSkipping(k, isDown)
				want := reduced.Owner(k)
				if got != want {
					t.Fatalf("seed %d mask %b key %q: OwnerSkipping=%q, removal ring owner=%q",
						seed, mask, k, got, want)
				}
			}
		}
	}
	// Degenerate predicates: nil skips nothing, everything-down yields "".
	r := NewRing(ringNodes, 64)
	for _, k := range keys[:20] {
		if r.OwnerSkipping(k, nil) != r.Owner(k) {
			t.Fatalf("nil predicate diverges from Owner for %q", k)
		}
		if got := r.OwnerSkipping(k, func(string) bool { return true }); got != "" {
			t.Fatalf("all-down ring returned owner %q", got)
		}
	}
	empty := NewRing(nil, 0)
	if got := empty.OwnerSkipping("k", nil); got != "" {
		t.Fatalf("empty ring OwnerSkipping = %q", got)
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owner("anything"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	if empty.Size() != 0 || empty.Contains("x") {
		t.Fatalf("empty ring reports membership")
	}
	single := NewRing([]string{"only"}, 0) // vnodes <= 0 → default
	for _, k := range testKeys(50) {
		if single.Owner(k) != "only" {
			t.Fatalf("single-node ring routed %q elsewhere", k)
		}
	}
	if r := single.WithNode("only"); r.Size() != 1 {
		t.Fatalf("re-adding a member changed the ring: %v", r.Nodes())
	}
	if r := single.WithoutNode("only"); r.Size() != 0 || r.Owner("k") != "" {
		t.Fatalf("removing the last node left owners behind")
	}
}

// Size returns the number of member nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// WithNode returns a new ring with node added (the receiver is
// unchanged). Adding an existing member returns an equivalent ring.
func (r *Ring) WithNode(node string) *Ring {
	return NewRing(append(r.Nodes(), node), r.vnodes)
}

// Contains reports whether node is a ring member.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}
