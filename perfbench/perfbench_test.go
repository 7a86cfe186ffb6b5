package main

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range workloads {
		a, err := wl.requests(7, 5)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		b, err := wl.requests(7, 5)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: lists of %d and %d requests", wl.name, len(a), len(b))
		}
		for i := range a {
			if a[i].at != b[i].at || a[i].target != b[i].target || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two builds of seed 7", wl.name, i)
			}
		}
		c, err := wl.requests(8, 5)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		same := len(c) == len(a)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i].body, c[i].body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 built the same request list", wl.name)
		}
	}
}

func TestColdKeysDistinctAndClean(t *testing.T) {
	for _, mix := range []coldMix{denseCold, sparseCold} {
		reqs, err := mix.requests(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, r := range reqs {
			if seen[r.name] {
				t.Fatalf("key %s drawn twice", r.name)
			}
			seen[r.name] = true
			if _, bad := knownViolations[r.name]; bad {
				t.Fatalf("key %s is a known violation", r.name)
			}
		}
		// Every key of the grid except the known violations is drawn once.
		want := 0
		for _, r := range mix.grid() {
			if _, bad := knownViolations[r.name]; !bad {
				want++
			}
		}
		if len(reqs) != want {
			t.Errorf("list holds %d keys, grid %d", len(reqs), want)
		}
	}
}

func TestColdRoundsKeepTheMix(t *testing.T) {
	// Every seed visits the same platform, method and band sequence; only
	// the threshold inside each band differs.
	a, _ := denseCold.requests(1, 0)
	b, _ := denseCold.requests(2, 0)
	diff := 0
	for i := 0; i < 66; i++ { // one round: 11 bands × 3 platforms × 2 methods
		fa, fb := strings.Fields(a[i].name), strings.Fields(b[i].name)
		ta, _ := strconv.ParseFloat(fa[2], 64)
		tb, _ := strconv.ParseFloat(fb[2], 64)
		if fa[0] != fb[0] || fa[1] != fb[1] || denseCold.band(ta) != denseCold.band(tb) {
			t.Fatalf("visit %d: %q vs %q", i, a[i].name, b[i].name)
		}
		if ta != tb {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 1 and 2 drew the same thresholds")
	}
}

func TestBitReversed(t *testing.T) {
	got := bitReversed(11)
	want := []int{0, 8, 4, 2, 10, 6, 1, 9, 5, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("bitReversed(11) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bitReversed(11) = %v, want %v", got, want)
		}
	}
}

func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0, 1},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%.2f = %v, want %v", c.p, got, c.want)
		}
	}
	if nearestRank(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
}

func TestTailSelection(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n          int
		p          float64
		value, pct float64
	}{
		{1000, 0.99, 990, 99},     // the workload's percentile: 10 beyond
		{1000, 0.75, 750, 75},     // 250 beyond
		{8000, 0.998, 7984, 99.8}, // 16 beyond
		{1000, 0.995, 990, 99},    // p99.5 leaves 5 beyond: fall back to rank n−10
		{100, 0.95, 90, 90},
		{11, 0.75, 1, 100.0 / 11},
		{10, 0.75, 10, 100},
		{3, 0.5, 3, 100},
	} {
		v, p := tail(mk(c.n), c.p)
		if v != c.value || p != c.pct {
			t.Errorf("n=%d p=%v: tail %v at p%v, want %v at p%v", c.n, c.p, v, p, c.value, c.pct)
		}
		if beyond := c.n - int(v); c.n > tailMin && beyond < tailMin {
			t.Errorf("n=%d p=%v: only %d samples beyond the tail", c.n, c.p, beyond)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	ok := respInfo{ok: true, key: "k"}
	deg := respInfo{ok: true, key: "k", degraded: true}
	outs := []outcome{
		{status: 200, resp: ok}, {status: 200, resp: ok}, {status: 200, resp: deg},
		{status: 200}, // undecodable body
		{status: 0}, {status: 429}, {status: 422}, {status: 504}, {status: 500}, {status: 503}, {status: 400},
	}
	a := account(outs)
	if a.attempted != len(outs) || a.sum() != a.attempted {
		t.Fatalf("classes sum to %d of %d", a.sum(), a.attempted)
	}
	if a.ok != 2 || a.failed() != len(outs)-2 {
		t.Errorf("ok %d failed %d", a.ok, a.failed())
	}
	want := accounting{attempted: 11, ok: 2, degraded: 1, badBody: 1, transport: 1, shed: 1, infeasible: 1, timeout: 1, server: 2, other: 1}
	if a != want {
		t.Errorf("accounting %+v, want %+v", a, want)
	}
}

func TestSumOfParts(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * float64(time.Millisecond)) }
	spans := []handlerSpan{
		// Two solving spans: 10 ms and 30 ms.
		{Key: "a", Status: http.StatusOK, StartNs: 0, EndNs: ms(10), Parent: -1},
		{Key: "b", Status: http.StatusOK, StartNs: ms(20), EndNs: ms(50), Parent: -1},
		// Not solves: a hit, a forwarder, a shared flight, an error, and a
		// solve whose key was not replayed.
		{Key: "a", Status: http.StatusOK, Cached: true, StartNs: ms(60), EndNs: ms(61), Parent: -1},
		{Key: "b", Status: http.StatusOK, Source: "forwarded", StartNs: ms(19), EndNs: ms(51), Parent: -1},
		{Key: "a", Status: http.StatusOK, Shared: true, StartNs: 0, EndNs: ms(10), Parent: -1},
		{Key: "a", Status: http.StatusTooManyRequests, StartNs: 0, EndNs: ms(1), Parent: -1},
		{Key: "c", Status: http.StatusOK, StartNs: 0, EndNs: ms(100), Parent: -1},
	}
	replayed := map[string]replayCost{
		"a": {solve: 8 * time.Millisecond, marshal: 500 * time.Microsecond, encode: 500 * time.Microsecond},
		"b": {solve: 27 * time.Millisecond},
	}
	// whole = 40 ms, parts = 9 + 27 = 36 ms → 10 % uncovered.
	if got := uncoveredPct(spans, replayed); got < 9.999 || got > 10.001 {
		t.Errorf("uncovered %.4f%%, want 10%%", got)
	}
	if got := uncoveredPct(nil, replayed); got != 0 {
		t.Errorf("empty trace: %v", got)
	}
}

func TestNestHops(t *testing.T) {
	spans := []handlerSpan{
		{Replica: 0, Key: "k", StartNs: 0, EndNs: 100},
		{Replica: 1, Key: "k", StartNs: 10, EndNs: 90, Hop: true},
		{Replica: 2, Key: "k", StartNs: 5, EndNs: 95},
		{Replica: 2, Key: "k", StartNs: 200, EndNs: 210, Hop: true}, // no enclosing forwarder
	}
	nestHops(spans)
	if spans[1].Parent != 2 {
		t.Errorf("hop nested in span %d, want the tighter span 2", spans[1].Parent)
	}
	if spans[3].Parent != -1 {
		t.Errorf("orphan hop nested in span %d", spans[3].Parent)
	}
}
