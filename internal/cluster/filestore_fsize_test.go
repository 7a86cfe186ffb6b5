//go:build linux

package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// An append that fails partway must not poison the log: the store cuts
// the partial line off, the next Put appends a whole line after the last
// good one, and a reopen holds exactly the accepted entries. A file size
// limit just above the log's size makes the kernel stop the write
// partway with EFBIG; the Go runtime ignores the SIGXFSZ that comes with
// it. The limit is per process, so this test must not run in parallel
// with one that writes files.
func TestFileStoreFailedAppendLeavesLogIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.log")
	st, err := NewFileStore(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Put(entry(0)) {
		t.Fatal("first Put rejected")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	limited := old
	limited.Cur = uint64(fi.Size()) + 16
	if old.Cur <= limited.Cur {
		t.Skipf("file size limit %d is already at most %d", old.Cur, limited.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
		t.Fatal(err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old)
	put1 := st.Put(entry(1))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if put1 {
		t.Fatal("Put past the file size limit returned true")
	}
	if !st.Put(entry(2)) {
		t.Fatal("Put after lifting the limit returned false")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewFileStore(path, 8)
	if err != nil {
		t.Fatalf("reopen after a failed append: %v", err)
	}
	defer re.Close()
	var got []string
	for _, e := range re.Entries() {
		got = append(got, e.Key)
	}
	if want := []string{entry(0).Key, entry(2).Key}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store holds %q, want %q", got, want)
	}
}
