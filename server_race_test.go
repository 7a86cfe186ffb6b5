package thermosc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"thermosc/internal/floorplan"
)

// TestServeConcurrentRequests hammers one Server with 100 concurrent
// mixed maximize/simulate requests (run under -race in CI). Every
// maximize response for a given method — whether it was the cold solve,
// a singleflight joiner, or a cache hit — must carry byte-identical plan
// bytes, and those bytes must equal a cold solve performed by a fresh
// Server with an empty cache.
func TestServeConcurrentRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	methods := []string{"LNS", "EXS", "AO", "PCO"}

	// Pre-solve one plan on a throwaway server so simulate requests can
	// run from the first goroutine, concurrently with the cold maximizes.
	_, tsPre := newTestServer(t)
	status, b := postJSON(t, tsPre.URL+"/v1/maximize", maximizeBody("LNS"))
	if status != 200 {
		t.Fatalf("pre-solve: status %d: %s", status, b)
	}
	simBody := fmt.Sprintf(`{"platform":{"rows":2,"cols":1,"paper_levels":3},"plan":%s,"periods":2,"samples_per_period":8}`,
		decodeMaximize(t, b).Plan)

	const clients = 100
	plans := make([][]byte, clients) // per-client plan bytes, nil for simulate clients
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%5 == 4 { // every fifth client simulates instead of solving
				status, b := postJSON(t, ts.URL+"/v1/simulate", simBody)
				if status != 200 {
					t.Errorf("client %d simulate: status %d: %s", i, status, b)
				}
				return
			}
			method := methods[i%4]
			status, b := postJSON(t, ts.URL+"/v1/maximize", maximizeBody(method))
			if status != 200 {
				t.Errorf("client %d %s: status %d: %s", i, method, status, b)
				return
			}
			plans[i] = decodeMaximize(t, b).Plan
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Cold reference solves on a fresh server (empty cache, no sharing).
	_, tsCold := newTestServer(t)
	for mi, method := range methods {
		status, b := postJSON(t, tsCold.URL+"/v1/maximize", maximizeBody(method))
		if status != 200 {
			t.Fatalf("cold %s: status %d: %s", method, status, b)
		}
		cold := decodeMaximize(t, b)
		if cold.Cached {
			t.Fatalf("cold %s reported cached=true", method)
		}
		for i := 0; i < clients; i++ {
			if i%5 == 4 || i%4 != mi {
				continue
			}
			if !bytes.Equal(plans[i], cold.Plan) {
				t.Fatalf("%s: client %d plan differs from cold solve:\n%s\n%s", method, i, plans[i], cold.Plan)
			}
		}
	}

	// Sanity on the counters: every maximize was a hit, a shared join,
	// or a miss that performed a solve; the cache ends holding all four.
	st := srv.Stats()
	if st.Cache.Size != len(methods) {
		t.Fatalf("plan cache holds %d entries, want %d: %+v", st.Cache.Size, len(methods), st.Cache)
	}
	if st.Cache.Hits+st.Cache.Misses != 80 { // 80 maximize clients
		t.Fatalf("hits+misses = %d, want 80: %+v", st.Cache.Hits+st.Cache.Misses, st.Cache)
	}
}

// TestServeSingleflightShares drives many concurrent identical requests
// at a slow method and asserts most of them joined the leader's flight
// (shared=true) or hit the cache, i.e. the solve ran far fewer times
// than it was asked for.
func TestServeSingleflightShares(t *testing.T) {
	_, ts := newTestServer(t)
	body := maximizeBody("PCO")
	const clients = 16
	responses := make([]MaximizeResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b := postJSON(t, ts.URL+"/v1/maximize", body)
			if status != 200 {
				t.Errorf("client %d: status %d: %s", i, status, b)
				return
			}
			responses[i] = decodeMaximize(t, b)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var solved int
	for i, r := range responses {
		if !bytes.Equal(r.Plan, responses[0].Plan) {
			t.Fatalf("client %d plan differs from client 0", i)
		}
		if !r.Cached && !r.Shared {
			solved++
		}
	}
	if solved == 0 {
		t.Fatal("someone must have performed the cold solve")
	}
	// All identical concurrent requests collapse onto cache hits or
	// shared flights; a few leaders can race past the cache check, but
	// nothing near one solve per client.
	if solved > clients/2 {
		t.Fatalf("%d/%d clients performed a full solve; singleflight is not deduplicating", solved, clients)
	}
}

// catalogMaximizeBodies builds /v1/maximize bodies over the floorplan
// catalog (filtered to small platforms so the differential sweep stays
// fast) at two thresholds each.
func catalogMaximizeBodies(t *testing.T, maxCores int) []string {
	t.Helper()
	var bodies []string
	for _, g := range floorplan.Catalog() {
		if g.NumCores() > maxCores {
			continue
		}
		plat := map[string]any{"rows": g.Rows, "cols": g.Cols, "paper_levels": 3}
		if g.CoreEdge > 0 {
			plat["core_edge_m"] = g.CoreEdge
		}
		if g.Layers > 1 {
			plat["stack_layers"] = g.Layers
		}
		if len(g.Scales) > 0 {
			plat["core_scales"] = g.Scales
		}
		for _, tmax := range []float64{62, 75} {
			b, err := json.Marshal(map[string]any{
				"platform": plat, "tmax_c": tmax, "method": "AO", "timeout_s": 120,
			})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(b))
		}
	}
	if len(bodies) < 6 {
		t.Fatalf("catalog sweep built only %d bodies", len(bodies))
	}
	return bodies
}

// TestBatchedPlansByteIdenticalAcrossCatalog sends the whole catalog
// sweep as one concurrent batch of requests — both thresholds of every
// platform solve at once on that platform's one shared sim.Engine — and
// requires every plan to match a sequential solve on a fresh server
// byte for byte. Run with -race.
func TestBatchedPlansByteIdenticalAcrossCatalog(t *testing.T) {
	bodies := catalogMaximizeBodies(t, 18)
	_, sequential := newTestServer(t)
	// SolveConcurrency must exceed 1 (the GOMAXPROCS default on a
	// single-core box) or admission serializes the solves and no two
	// ever share an engine at once.
	concurrent := httptest.NewServer(NewServer(ServerConfig{SolveConcurrency: 8}))
	t.Cleanup(concurrent.Close)

	want := make(map[string][]byte, len(bodies))
	for _, body := range bodies {
		status, b := postJSON(t, sequential.URL+"/v1/maximize", body)
		if status != 200 {
			t.Fatalf("sequential solve: status %d: %s", status, b)
		}
		mr := decodeMaximize(t, b)
		if mr.Degraded {
			t.Fatalf("sequential reference degraded (%s) — raise the sweep timeout", mr.DegradedReason)
		}
		want[body] = mr.Plan
	}

	var wg sync.WaitGroup
	got := make([][]byte, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			status, b := postJSON(t, concurrent.URL+"/v1/maximize", body)
			if status != 200 {
				t.Errorf("concurrent solve: status %d: %s", status, b)
				return
			}
			got[i] = decodeMaximize(t, b).Plan
		}(i, body)
	}
	wg.Wait()
	for i, body := range bodies {
		if !bytes.Equal(got[i], want[body]) {
			t.Fatalf("body %d: concurrent plan differs from sequential:\n%s\nvs\n%s", i, got[i], want[body])
		}
	}
}

// TestBatchSamePlatformStormCoalesces drives 16 concurrent requests over
// 4 thresholds on ONE platform: identical plan keys coalesce in the
// singleflight, the 4 distinct solves run together on the platform's
// one shared engine, and every plan matches a sequential solve byte for
// byte. A mixed-platform storm then builds one engine per platform.
// Run with -race.
func TestBatchSamePlatformStormCoalesces(t *testing.T) {
	_, sequential := newTestServer(t)
	srv := NewServer(ServerConfig{SolveConcurrency: 8})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	tmaxes := []float64{58, 60, 62, 64}
	ref := make(map[string][]byte)
	for _, tm := range tmaxes {
		body := clusterBody(2, 2, 3, tm)
		status, b := postJSON(t, sequential.URL+"/v1/maximize", body)
		if status != 200 {
			t.Fatalf("reference solve: status %d: %s", status, b)
		}
		ref[body] = decodeMaximize(t, b).Plan
	}

	var wg sync.WaitGroup
	var bad, solved atomic.Int64
	for rep := 0; rep < 4; rep++ {
		for _, tm := range tmaxes {
			wg.Add(1)
			go func(tm float64) {
				defer wg.Done()
				body := clusterBody(2, 2, 3, tm)
				status, b := postJSON(t, ts.URL+"/v1/maximize", body)
				if status != 200 {
					t.Errorf("storm solve: status %d: %s", status, b)
					bad.Add(1)
					return
				}
				mr := decodeMaximize(t, b)
				if !bytes.Equal(mr.Plan, ref[body]) {
					t.Errorf("storm plan for tmax %g differs from the sequential solve", tm)
					bad.Add(1)
				}
				if !mr.Cached && !mr.Shared {
					solved.Add(1)
				}
			}(tm)
		}
	}
	wg.Wait()
	if bad.Load() > 0 {
		t.FailNow()
	}
	// Each distinct key needs one solve; a request can race past the
	// cache check just as a flight ends, but nothing near one per client.
	if n := solved.Load(); n < int64(len(tmaxes)) || n > 8 {
		t.Fatalf("%d of 16 storm requests ran their own solve, want 4..8", n)
	}
	if n := srv.platforms.Len(); n != 1 {
		t.Fatalf("same-platform storm built %d platforms, want one shared engine", n)
	}

	// Mixed-platform storm: distinct platforms get distinct engines.
	var wg2 sync.WaitGroup
	for _, rows := range []int{2, 3} {
		wg2.Add(1)
		go func(rows int) {
			defer wg2.Done()
			if status, b := postJSON(t, ts.URL+"/v1/maximize", clusterBody(rows, 1, 3, 59)); status != 200 {
				t.Errorf("mixed storm: status %d: %s", status, b)
			}
		}(rows)
	}
	wg2.Wait()
	if n := srv.platforms.Len(); n != 3 {
		t.Fatalf("mixed storm left %d platforms cached, want 3", n)
	}
}
