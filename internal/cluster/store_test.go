package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func entry(i int) Entry {
	return Entry{
		Key:          fmt.Sprintf(`{"platform":{"rows":%d,"cols":1},"tmax_c":65}`, i+1),
		Plan:         []byte(fmt.Sprintf(`{"throughput":%d.5}`, i)),
		BornUnixNano: int64(1000 + i),
	}
}

func TestMemStorePutGetValidation(t *testing.T) {
	st := NewMemStore(8)
	e := entry(0)
	if !st.Put(e) {
		t.Fatal("valid entry rejected")
	}
	if st.Put(e) {
		t.Fatal("duplicate key accepted (first-write-wins violated)")
	}
	got, ok := st.Get(e.Key)
	if !ok || !bytes.Equal(got.Plan, e.Plan) || got.BornUnixNano != e.BornUnixNano {
		t.Fatalf("get mismatch: %+v", got)
	}
	// The incumbent's bytes survive a conflicting Put.
	if st.Put(Entry{Key: e.Key, Plan: []byte("other")}) {
		t.Fatal("conflicting Put accepted")
	}
	got, _ = st.Get(e.Key)
	if !bytes.Equal(got.Plan, e.Plan) {
		t.Fatal("conflicting Put replaced the incumbent")
	}

	bad := []Entry{
		{Key: "", Plan: []byte("x")},
		{Key: "k", Plan: nil},
		{Key: strings.Repeat("k", MaxKeyBytes+1), Plan: []byte("x")},
		{Key: "k", Plan: bytes.Repeat([]byte("x"), MaxPlanBytes+1)},
	}
	for i, e := range bad {
		if e.Validate() == nil {
			t.Fatalf("bad entry %d passed Validate", i)
		}
		if st.Put(e) {
			t.Fatalf("bad entry %d accepted", i)
		}
	}
	if st.Len() != 1 {
		t.Fatalf("store len %d, want 1", st.Len())
	}
}

func TestMemStoreFIFOEviction(t *testing.T) {
	st := NewMemStore(3)
	for i := 0; i < 5; i++ {
		if !st.Put(entry(i)) {
			t.Fatalf("put %d rejected", i)
		}
	}
	if st.Len() != 3 {
		t.Fatalf("len %d, want cap 3", st.Len())
	}
	for i := 0; i < 2; i++ { // oldest two evicted
		if _, ok := st.Get(entry(i).Key); ok {
			t.Fatalf("entry %d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := st.Get(entry(i).Key); !ok {
			t.Fatalf("entry %d evicted out of order", i)
		}
	}
}

func TestMemStoreImmutableAndSorted(t *testing.T) {
	st := NewMemStore(0)
	plan := []byte(`{"v":1}`)
	st.Put(Entry{Key: "b", Plan: plan})
	st.Put(Entry{Key: "a", Plan: []byte(`{"v":2}`)})
	plan[1] = 'X' // caller mutates its buffer after Put
	got, _ := st.Get("b")
	if !bytes.Equal(got.Plan, []byte(`{"v":1}`)) {
		t.Fatal("store aliased the caller's plan buffer")
	}
	ents := st.Entries()
	if len(ents) != 2 || ents[0].Key != "a" || ents[1].Key != "b" {
		t.Fatalf("entries not key-sorted: %+v", ents)
	}
	d := st.Digest()
	if len(d) != 2 || d["b"] != PlanHash([]byte(`{"v":1}`)) {
		t.Fatalf("digest mismatch: %v", d)
	}
}

func TestDecodeSyncRequestStrict(t *testing.T) {
	cases := map[string]string{
		"garbage":           `[`,
		"trailing":          `{}{}`,
		"unknown field":     `{"bogus":1}`,
		"empty digest key":  `{"digest":{"":"abcd"}}`,
		"empty digest hash": `{"digest":{"k":""}}`,
		"bad entry":         `{"entries":[{"key":"","plan":"eA=="}]}`,
	}
	for name, body := range cases {
		if _, err := DecodeSyncRequest([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %q", name, body)
		}
	}
	req, err := DecodeSyncRequest([]byte(`{"from":"a","digest":{"k":"abcd"}}`))
	if err != nil || req.From != "a" || req.Digest["k"] != "abcd" {
		t.Fatalf("valid request rejected: %+v %v", req, err)
	}
}

// Two stores with disjoint-and-overlapping contents converge in one
// pull-push round, in both directions.
func TestHandleSyncConvergence(t *testing.T) {
	a, b := NewMemStore(0), NewMemStore(0)
	for i := 0; i < 6; i++ {
		a.Put(entry(i))
	}
	for i := 4; i < 10; i++ {
		b.Put(entry(i))
	}

	// Pull phase: A sends its digest to B.
	resp := HandleSync(b, SyncRequest{From: "a", Digest: a.Digest()})
	if len(resp.Entries) != 4 { // entries 6..9
		t.Fatalf("pull returned %d entries, want 4", len(resp.Entries))
	}
	if len(resp.Want) != 4 { // entries 0..3
		t.Fatalf("want list has %d keys, want 4", len(resp.Want))
	}
	for _, e := range resp.Entries {
		a.Put(e)
	}
	// Push phase: A sends what B asked for.
	push := HandleSync(b, SyncRequest{From: "a", Entries: MissingEntries(a, resp.Want)})
	if push.Applied != 4 {
		t.Fatalf("push applied %d, want 4", push.Applied)
	}
	if !Converged(a.Digest(), b.Digest()) {
		t.Fatal("stores did not converge after one round")
	}
	// Converged stores: a further round is a no-op.
	resp = HandleSync(b, SyncRequest{From: "a", Digest: a.Digest()})
	if len(resp.Entries) != 0 || len(resp.Want) != 0 || resp.Applied != 0 {
		t.Fatalf("converged round not a no-op: %+v", resp)
	}
}
