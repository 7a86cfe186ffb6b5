package cluster

import (
	"encoding/json"
	"testing"
)

// FuzzPlanStoreSync proves the cluster's network decode surface — gossip
// sync messages, which also carry a store's export and import — never
// panics on arbitrary bytes, and that applying an accepted message
// stores only valid entries.
func FuzzPlanStoreSync(f *testing.F) {
	st := NewMemStore(0)
	for i := 0; i < 4; i++ {
		st.Put(entry(i))
	}
	if b, err := json.Marshal(SyncRequest{Entries: st.Entries()}); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"keys":[]}`))
	f.Add([]byte(`{"entries":[{"key":"k","plan":"eyJ2IjoxfQ==","born_unix_nano":12}]}`))
	f.Add([]byte(`{"keys":["k","k"]}`))
	f.Add([]byte(`{"entries":[{"key":"k","plan":"eA=="}],"keys":["q"]}`))
	f.Add([]byte(`{"keys":null,"entries":null}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"entries":[{"key":"","plan":""}]}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		// Decode + protocol application must never panic.
		if req, err := DecodeSyncRequest(b); err == nil {
			st := NewMemStore(8)
			st.Put(entry(0))
			resp := HandleSync(st, req)
			if resp.Applied < 0 || resp.Applied > len(req.Entries) {
				t.Fatalf("applied %d of %d pushed entries", resp.Applied, len(req.Entries))
			}
			for _, e := range resp.Entries {
				if err := e.Validate(); err != nil {
					t.Fatalf("sync response carries an invalid entry: %v", err)
				}
			}
			for i := 1; i < len(resp.Want); i++ {
				if resp.Want[i] <= resp.Want[i-1] {
					t.Fatalf("want list is not sorted and duplicate-free: %q", resp.Want)
				}
			}
			HandleSync(st, SyncRequest{Entries: MissingEntries(st, resp.Want)})
		}
	})
}
