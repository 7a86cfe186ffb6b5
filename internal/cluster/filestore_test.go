package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// storeBackends enumerates the store's two configurations, without a
// log ("mem") and with one ("file"); the conformance tests below run
// once per configuration so the log cannot change what the store
// answers.
func storeBackends(t *testing.T) map[string]func(t *testing.T, capacity int) *Store {
	return map[string]func(t *testing.T, capacity int) *Store{
		"mem": func(t *testing.T, capacity int) *Store { return NewMemStore(capacity) },
		"file": func(t *testing.T, capacity int) *Store {
			st, err := NewFileStore(filepath.Join(t.TempDir(), "plans.log"), capacity)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			return st
		},
	}
}

func TestPlanStoreConformancePutGetValidation(t *testing.T) {
	for name, mk := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk(t, 8)
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
				if st.Put(e) {
					t.Fatalf("bad entry %d accepted", i)
				}
			}
			if st.Len() != 1 || st.Cap() != 8 {
				t.Fatalf("len %d cap %d, want 1/8", st.Len(), st.Cap())
			}
		})
	}
}

func TestPlanStoreConformanceFIFOEviction(t *testing.T) {
	for name, mk := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk(t, 3)
			for i := 0; i < 5; i++ {
				if !st.Put(entry(i)) {
					t.Fatalf("put %d rejected", i)
				}
			}
			if st.Len() != 3 {
				t.Fatalf("len %d, want cap 3", st.Len())
			}
			for i := 0; i < 2; i++ {
				if _, ok := st.Get(entry(i).Key); ok {
					t.Fatalf("entry %d survived eviction", i)
				}
			}
			for i := 2; i < 5; i++ {
				if _, ok := st.Get(entry(i).Key); !ok {
					t.Fatalf("entry %d evicted out of order", i)
				}
			}
		})
	}
}

func TestPlanStoreConformanceImmutableSortedDigest(t *testing.T) {
	for name, mk := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			st := mk(t, 0)
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
			// Keys, the pull a sync round sends, is in store (FIFO) order.
			if keys := st.Keys(); len(keys) != 2 || keys[0] != "b" || keys[1] != "a" {
				t.Fatalf("keys not in store order: %v", keys)
			}
			if st.Cap() != DefaultStoreCap {
				t.Fatalf("cap %d, want default %d", st.Cap(), DefaultStoreCap)
			}
		})
	}
}

// Cross-configuration anti-entropy: a store without a log and one with
// a log, with partially overlapping contents, converge through the same
// HandleSync path the gossip loop uses.
func TestPlanStoreConformanceSyncAcrossBackends(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "plans.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewMemStore(0)
	for i := 0; i < 6; i++ {
		ms.Put(entry(i))
	}
	for i := 4; i < 10; i++ {
		fs.Put(entry(i))
	}
	resp := HandleSync(fs, SyncRequest{Keys: ms.Keys()})
	for _, e := range resp.Entries {
		ms.Put(e)
	}
	if push := HandleSync(fs, SyncRequest{Entries: MissingEntries(ms, resp.Want)}); push.Applied != 4 {
		t.Fatalf("push applied %d, want 4", push.Applied)
	}
	if !reflect.DeepEqual(ms.Entries(), fs.Entries()) {
		t.Fatal("mixed backends did not converge")
	}
}

// --- Durability of a store with a log ---

// Reopening a log restores byte-identical entries.
func TestFileStoreReopenRestores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.log")
	st, err := NewFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if !st.Put(entry(i)) {
			t.Fatalf("put %d rejected", i)
		}
	}
	want := st.Entries()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(want, re.Entries()) {
		t.Fatal("reopened store diverges")
	}
	got, ok := re.Get(entry(3).Key)
	if !ok || !bytes.Equal(got.Plan, entry(3).Plan) || got.BornUnixNano != entry(3).BornUnixNano {
		t.Fatalf("restored entry mismatch: %+v", got)
	}
	// The reopened store keeps accepting writes.
	if !re.Put(entry(100)) {
		t.Fatal("reopened store rejected a fresh put")
	}
}

// Replay goes through the Put path, so a log longer than the cap
// reconstructs the exact FIFO end state, eviction order included.
func TestFileStoreReopenReplaysEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.log")
	st, err := NewFileStore(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		st.Put(entry(i))
	}
	want := st.Entries()
	st.Close()
	re, err := NewFileStore(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 || !reflect.DeepEqual(want, re.Entries()) {
		t.Fatalf("evicted replay diverges: len %d", re.Len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := re.Get(entry(i).Key); ok {
			t.Fatalf("evicted entry %d resurrected on replay", i)
		}
	}
}

// A torn final line (crash mid-append) is truncated away — also one
// that parses, since only a line ending in '\n' was written whole.
// Everything before it survives, and the torn key can be stored again
// and survives a reopen.
func TestFileStoreTornTailTruncated(t *testing.T) {
	for _, tc := range []struct{ name, key, tail string }{
		{"partial", "torn", `{"key":"torn","pl`},
		{"parseable", "torn-valid", `{"key":"torn-valid","plan":"eA=="}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "plans.log")
			st, err := NewFileStore(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.Put(entry(0))
			st.Put(entry(1))
			st.Close()
			// Simulate a crash mid-write: append a record without its newline.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			re, err := NewFileStore(path, 0)
			if err != nil {
				t.Fatalf("torn tail must recover, got %v", err)
			}
			defer re.Close()
			if re.Len() != 2 {
				t.Fatalf("len %d after torn-tail recovery, want 2", re.Len())
			}
			if _, ok := re.Get(tc.key); ok {
				t.Fatal("torn record leaked into the store")
			}
			if !re.Put(Entry{Key: tc.key, Plan: []byte("x")}) {
				t.Fatal("post-recovery put of the torn key rejected")
			}
			re.Close()
			re2, err := NewFileStore(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if got, ok := re2.Get(tc.key); re2.Len() != 3 || !ok || string(got.Plan) != "x" {
				t.Fatalf("after second reopen: len %d, torn key present %v, want 3 and true", re2.Len(), ok)
			}
		})
	}
}

// logLines counts the lines of the log at path.
func logLines(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// Opening a log that holds more entry lines than the store keeps
// compacts it to the header plus the live entries, with the entries and
// the FIFO eviction order unchanged. A sibling left by an interrupted
// compaction changes nothing, and a compaction that cannot write its
// sibling keeps the old log, still valid and in use.
func TestFileStoreCompactsOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.log")
	var want []Entry
	var fifo []string // the live keys at the last close, oldest first
	for round := 0; round < 3; round++ {
		if round == 2 {
			if err := os.WriteFile(path+".compact", []byte(`{"format":"thermosc-pl`), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := NewFileStore(path, 3)
		if err != nil {
			t.Fatalf("open %d: %v", round, err)
		}
		if got := logLines(t, path); got != 1+st.Len() {
			t.Fatalf("open %d: log has %d lines, want 1+%d", round, got, st.Len())
		}
		if round > 0 && !reflect.DeepEqual(want, st.Entries()) {
			t.Fatalf("open %d: entries changed across the reopen", round)
		}
		// Six new keys per open; the first three must evict the reopened
		// keys oldest first.
		for i := 0; i < 6; i++ {
			if !st.Put(entry(round*6 + i)) {
				t.Fatalf("open %d: put %d rejected", round, i)
			}
			if i >= len(fifo) {
				continue
			}
			for j, k := range fifo {
				if _, ok := st.Get(k); ok != (j > i) {
					t.Fatalf("open %d: after put %d, key %d of the FIFO present=%v", round, i, j, ok)
				}
			}
		}
		fifo = []string{entry(round*6 + 3).Key, entry(round*6 + 4).Key, entry(round*6 + 5).Key}
		want = st.Entries()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if err := os.Mkdir(path+".compact", 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := NewFileStore(path, 3)
	if err != nil {
		t.Fatalf("a failed compaction must keep the old log: %v", err)
	}
	if got := logLines(t, path); got != 1+3+6 {
		t.Fatalf("failed compaction left %d log lines, want the old 10", got)
	}
	if !st.Put(entry(100)) {
		t.Fatal("put after a failed compaction rejected")
	}
	want = st.Entries()
	st.Close()
	if err := os.Remove(path + ".compact"); err != nil {
		t.Fatal(err)
	}
	re, err := NewFileStore(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(want, re.Entries()) || logLines(t, path) != 1+re.Len() {
		t.Fatalf("append after a failed compaction lost: %d log lines for %d entries", logLines(t, path), re.Len())
	}
}

// Corruption BEFORE the tail is a hard error — never serve from a
// silently-partial store.
func TestFileStoreMidFileCorruptionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.log")
	st, err := NewFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(entry(0))
	st.Put(entry(1))
	st.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("log has %d lines, want >=3", len(lines))
	}
	lines[1] = []byte("{broken json}\n") // first entry line
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(path, 0); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// A log whose header is wrong (different format or version) is a hard
// error; a torn header (crash during the very first write) resets to an
// empty store.
func TestFileStoreHeaderHandling(t *testing.T) {
	dir := t.TempDir()
	badHeader := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(badHeader, []byte(`{"format":"other","version":1,"cap":4}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(badHeader, 0); err == nil {
		t.Fatal("foreign header accepted")
	}

	torn := filepath.Join(dir, "torn.log")
	if err := os.WriteFile(torn, []byte(`{"format":"thermosc-pl`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewFileStore(torn, 0)
	if err != nil {
		t.Fatalf("torn header must reset, got %v", err)
	}
	defer st.Close()
	if st.Len() != 0 {
		t.Fatalf("len %d after torn-header reset, want 0", st.Len())
	}
	if !st.Put(entry(0)) {
		t.Fatal("put after reset rejected")
	}
}

// Close is idempotent and stops writes; reads keep serving from memory.
func TestFileStoreCloseSemantics(t *testing.T) {
	st, err := NewFileStore(filepath.Join(t.TempDir(), "plans.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(entry(0))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if st.Put(entry(1)) {
		t.Fatal("put accepted after close")
	}
	if _, ok := st.Get(entry(0).Key); !ok {
		t.Fatal("read failed after close")
	}
}

// Concurrent writers against one store with a log stay race-clean and the log
// replays to the same entries.
func TestFileStoreConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.log")
	st, err := NewFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 25; i++ {
				st.Put(Entry{Key: fmt.Sprintf("w%d-i%d", w, i), Plan: []byte("p")})
				st.Get(fmt.Sprintf("w%d-i%d", (w+1)%4, i))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	want := st.Entries()
	st.Close()
	re, err := NewFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(want, re.Entries()) {
		t.Fatal("concurrent log replay diverges")
	}
}

// FuzzFileStoreRecover writes arbitrary bytes as a store log and opens
// it: opening never panics, and a log that opens holds only valid
// entries within the cap and reopens to the same entries.
func FuzzFileStoreRecover(f *testing.F) {
	// Short seeds keep minimizing a new input cheap: every execution
	// fsyncs. Five entry lines, one a duplicate, over cap 3 replay with an
	// eviction and a compaction.
	header := `{"format":"thermosc-planstore","version":1,"cap":3}` + "\n"
	entries := `{"key":"a","plan":"eA=="}` + "\n" + `{"key":"b","plan":"eQ=="}` + "\n" +
		`{"key":"a","plan":"eg=="}` + "\n" + `{"key":"c","plan":"eA=="}` + "\n" +
		`{"key":"d","plan":"eA=="}` + "\n"
	f.Add([]byte(header + entries))
	f.Add([]byte(header + entries + `{"key":"torn","pl`))
	f.Add([]byte(`{"format":"thermosc-pl`))
	f.Add([]byte(header + "{broken json}\n" + entries))

	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "plans.log")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := NewFileStore(path, 3)
		if err != nil {
			return
		}
		if st.Len() > st.Cap() {
			t.Fatalf("recovered %d entries over the cap %d", st.Len(), st.Cap())
		}
		for _, e := range st.Entries() {
			if err := e.Validate(); err != nil {
				t.Fatalf("recovered an invalid entry: %v", err)
			}
		}
		want := st.Entries()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := NewFileStore(path, 3)
		if err != nil {
			t.Fatalf("reopening a recovered log: %v", err)
		}
		defer re.Close()
		if !reflect.DeepEqual(want, re.Entries()) {
			t.Fatal("reopened store diverges from the recovered one")
		}
	})
}
