package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
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
}

func TestDecodeSyncRequestStrict(t *testing.T) {
	cases := map[string]string{
		"garbage":       `[`,
		"trailing":      `{}{}`,
		"unknown field": `{"bogus":1}`,
		"digest":        `{"digest":{}}`,
		"from":          `{"from":"a","keys":[]}`,
		"empty key":     `{"keys":[""]}`,
		"keys object":   `{"keys":{"k":"abcd"}}`,
		"bad entry":     `{"entries":[{"key":"","plan":"eA=="}]}`,
	}
	for name, body := range cases {
		if _, err := DecodeSyncRequest([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %q", name, body)
		}
	}
	req, err := DecodeSyncRequest([]byte(`{"keys":["k"]}`))
	if err != nil || len(req.Keys) != 1 || req.Keys[0] != "k" {
		t.Fatalf("valid request rejected: %+v %v", req, err)
	}
	// An empty list is a real pull (the export); null is push-only.
	if req, err := DecodeSyncRequest([]byte(`{"keys":[]}`)); err != nil || req.Keys == nil {
		t.Fatalf("empty pull lost: %+v %v", req, err)
	}
	if req, err := DecodeSyncRequest([]byte(`{"keys":null}`)); err != nil || req.Keys != nil {
		t.Fatalf("push-only message became a pull: %+v %v", req, err)
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

	// Pull phase: A sends its keys to B.
	resp := HandleSync(b, SyncRequest{Keys: a.Keys()})
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
	push := HandleSync(b, SyncRequest{Entries: MissingEntries(a, resp.Want)})
	if push.Applied != 4 {
		t.Fatalf("push applied %d, want 4", push.Applied)
	}
	if !reflect.DeepEqual(a.Entries(), b.Entries()) {
		t.Fatal("stores did not converge after one round")
	}
	// Converged stores: a further round is a no-op.
	resp = HandleSync(b, SyncRequest{Keys: a.Keys()})
	if len(resp.Entries) != 0 || len(resp.Want) != 0 || resp.Applied != 0 {
		t.Fatalf("converged round not a no-op: %+v", resp)
	}
}

// BenchmarkHandleSyncConverged measures one converged anti-entropy pull
// at both ends: the sender lists its keys and encodes the request, and
// the receiver decodes it and answers from a store holding the same
// 1,000 entries, so nothing moves. Keys and plans are the size of
// fleet3-zipf's (~194 and ~700 bytes).
func BenchmarkHandleSyncConverged(b *testing.B) {
	const n = 1000
	sender, receiver := NewMemStore(0), NewMemStore(0)
	for i := 0; i < n; i++ {
		e := Entry{
			Key: fmt.Sprintf(`{"method":"AO","platform":{"rows":3,"cols":3,"layers":1,"voltages":[0.6,0.85,1.1,1.3],`+
				`"ambient_c":35,"period_s":0.02,"overhead_s":5e-06,"core_edge_m":0.004,"convection_r":0.1},"tmax_c":%.4f}`, 55+float64(i)/128),
			Plan: []byte(fmt.Sprintf(`{"version":1,"method":"AO","throughput":%d.5,"pad":%q}`, i, strings.Repeat("v", 640))),
		}
		sender.Put(e)
		receiver.Put(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(SyncRequest{Keys: sender.Keys()})
		if err != nil {
			b.Fatal(err)
		}
		req, err := DecodeSyncRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		if resp := HandleSync(receiver, req); len(resp.Entries)+len(resp.Want) != 0 {
			b.Fatalf("converged pull moved %d entries and wants %d", len(resp.Entries), len(resp.Want))
		}
	}
}
