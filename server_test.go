package thermosc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func maximizeBody(method string) string {
	return fmt.Sprintf(`{"platform":{"rows":2,"cols":1,"paper_levels":3},"tmax_c":65,"method":%q}`, method)
}

func decodeMaximize(t *testing.T, b []byte) MaximizeResponse {
	t.Helper()
	var mr MaximizeResponse
	if err := json.Unmarshal(b, &mr); err != nil {
		t.Fatalf("decoding response %s: %v", b, err)
	}
	return mr
}

// A cache hit must return the same plan bytes as the cold solve that
// populated it, and an independent cold solve (fresh server) must agree
// byte for byte too.
func TestServeMaximizeCacheHitBitIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	body := maximizeBody("AO")

	status, b1 := postJSON(t, ts.URL+"/v1/maximize", body)
	if status != 200 {
		t.Fatalf("cold solve: status %d: %s", status, b1)
	}
	r1 := decodeMaximize(t, b1)
	if r1.Cached {
		t.Fatal("first solve reported cached=true")
	}
	status, b2 := postJSON(t, ts.URL+"/v1/maximize", body)
	if status != 200 {
		t.Fatalf("cache hit: status %d: %s", status, b2)
	}
	r2 := decodeMaximize(t, b2)
	if !r2.Cached {
		t.Fatal("second solve missed the cache")
	}
	if !bytes.Equal(r1.Plan, r2.Plan) {
		t.Fatalf("cache hit differs from cold solve:\n%s\n%s", r1.Plan, r2.Plan)
	}

	_, ts2 := newTestServer(t)
	status, b3 := postJSON(t, ts2.URL+"/v1/maximize", body)
	if status != 200 {
		t.Fatalf("fresh server: status %d: %s", status, b3)
	}
	if r3 := decodeMaximize(t, b3); !bytes.Equal(r1.Plan, r3.Plan) {
		t.Fatalf("independent cold solve differs:\n%s\n%s", r1.Plan, r3.Plan)
	}

	// Spelling the defaults out must canonicalize to the same cache key.
	spelled := `{"platform":{"rows":2,"cols":1,"paper_levels":3,"ambient_c":35,"period_s":0.02},"tmax_c":65,"method":"ao","timeout_s":20}`
	status, b4 := postJSON(t, ts.URL+"/v1/maximize", spelled)
	if status != 200 {
		t.Fatalf("spelled-out request: status %d: %s", status, b4)
	}
	r4 := decodeMaximize(t, b4)
	if !r4.Cached || r4.Key != r1.Key {
		t.Fatalf("canonicalization failed: cached=%v key %s vs %s", r4.Cached, r4.Key, r1.Key)
	}
}

func TestServeMaximizeRejections(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"platform":`, 400},
		{"not json", `hello`, 400},
		{"unknown field", `{"platform":{"rows":2,"cols":1},"tmax":65,"method":"AO"}`, 400},
		{"zero rows", `{"platform":{"rows":0,"cols":1},"tmax_c":65,"method":"AO"}`, 400},
		{"oversized grid", `{"platform":{"rows":50,"cols":50},"tmax_c":65,"method":"AO"}`, 400},
		{"overflowing tmax", `{"platform":{"rows":2,"cols":1},"tmax_c":1e999,"method":"AO"}`, 400},
		{"tmax below ambient", `{"platform":{"rows":2,"cols":1},"tmax_c":10,"method":"AO"}`, 400},
		{"tmax as NaN string", `{"platform":{"rows":2,"cols":1},"tmax_c":"NaN","method":"AO"}`, 400},
		{"unknown method", `{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"GREEDY"}`, 400},
		{"both level specs", `{"platform":{"rows":2,"cols":1,"paper_levels":3,"voltages":[0.6,1.3]},"tmax_c":65,"method":"AO"}`, 400},
		{"negative voltage", `{"platform":{"rows":2,"cols":1,"voltages":[-0.5,1.0]},"tmax_c":65,"method":"AO"}`, 400},
		{"negative timeout", `{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO","timeout_s":-1}`, 400},
		{"core scales mismatch", `{"platform":{"rows":2,"cols":1,"core_scales":[1,1,1]},"tmax_c":65,"method":"AO"}`, 400},
	}
	for _, tc := range cases {
		status, b := postJSON(t, ts.URL+"/v1/maximize", tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, b)
		}
	}
	// Method not allowed on the route itself.
	resp, err := http.Get(ts.URL + "/v1/maximize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/maximize: status %d, want 405", resp.StatusCode)
	}
}

// A tiny per-request timeout must cancel the solver's search loops and
// still answer 200 — quickly, not after the full solve — with a plan
// tagged degraded: the anytime chain's best-so-far, or failing that the
// constant safe floor. The served plan must pass the independent
// verification oracle; a deadline is never an excuse for an unverified
// plan (or a useless 504).
func TestServeTimeoutCancelsSearch(t *testing.T) {
	// The small DefaultTimeout bounds the background stale-refresh this
	// test triggers below — the refresh degrades and is dropped instead
	// of running a full multi-second PCO solve after the test moves on.
	srv := NewServer(ServerConfig{DefaultTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	body := `{"platform":{"rows":3,"cols":3},"tmax_c":65,"method":"PCO","timeout_s":0.001}`
	start := time.Now()
	status, b := postJSON(t, ts.URL+"/v1/maximize", body)
	if status != 200 {
		t.Fatalf("status %d (want 200 degraded): %s", status, b)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timed-out request took %s — cancellation is not reaching the search loops", el)
	}
	mr := decodeMaximize(t, b)
	if !mr.Degraded || mr.DegradedReason == "" {
		t.Fatalf("deadline-truncated solve not tagged degraded: %s", b)
	}
	var plan Plan
	if err := json.Unmarshal(mr.Plan, &plan); err != nil {
		t.Fatalf("decoding degraded plan: %v", err)
	}
	if !plan.Degraded || !plan.Feasible || plan.Throughput <= 0 {
		t.Fatalf("degraded plan is not a usable fallback: degraded=%v feasible=%v tpt=%v",
			plan.Degraded, plan.Feasible, plan.Throughput)
	}
	// Re-verify the served plan against the oracle at its claimed Tmax.
	plat, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plat.Audit(&plan, 65)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("served degraded plan fails the verification oracle: %s", rep)
	}

	// The degraded entry is cached but always stale: a second hit serves
	// it immediately with stale:true while a background refresh runs.
	status, b = postJSON(t, ts.URL+"/v1/maximize", body)
	if status != 200 {
		t.Fatalf("stale hit: status %d: %s", status, b)
	}
	if mr2 := decodeMaximize(t, b); !mr2.Cached || !mr2.Stale || !mr2.Degraded {
		t.Fatalf("degraded cache hit not served stale-while-revalidate: %s", b)
	}
	srv.waitIdle()
	if st := srv.Stats(); st.Resilience.StaleServed < 1 || st.Resilience.DegradedServed < 2 || st.Resilience.Refreshes < 1 {
		t.Fatalf("resilience counters missed the degraded flow: %+v", st.Resilience)
	}
}

func TestServeSimulate(t *testing.T) {
	_, ts := newTestServer(t)
	status, b := postJSON(t, ts.URL+"/v1/maximize", maximizeBody("LNS"))
	if status != 200 {
		t.Fatalf("maximize: status %d: %s", status, b)
	}
	plan := decodeMaximize(t, b).Plan

	simBody := fmt.Sprintf(`{"platform":{"rows":2,"cols":1,"paper_levels":3},"plan":%s,"periods":2,"samples_per_period":16}`, plan)
	status, b = postJSON(t, ts.URL+"/v1/simulate", simBody)
	if status != 200 {
		t.Fatalf("simulate: status %d: %s", status, b)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.CoreTempC) != 2 || len(sr.TimeS) != 2*16+1 {
		t.Fatalf("trace shape: %d cores, %d samples", len(sr.CoreTempC), len(sr.TimeS))
	}
	if sr.MaxC <= 35 || sr.VerifiedPeakC <= 35 || sr.VerifiedPeakC > 66 {
		t.Fatalf("implausible temperatures: max %.2f, verified peak %.2f", sr.MaxC, sr.VerifiedPeakC)
	}

	// Plan/platform mismatch must be a 400, not a panic or a 500.
	status, b = postJSON(t, ts.URL+"/v1/simulate",
		fmt.Sprintf(`{"platform":{"rows":3,"cols":1,"paper_levels":3},"plan":%s}`, plan))
	if status != 400 {
		t.Fatalf("mismatched simulate: status %d: %s", status, b)
	}
	// Oversized traces are rejected up front.
	status, b = postJSON(t, ts.URL+"/v1/simulate",
		fmt.Sprintf(`{"platform":{"rows":2,"cols":1,"paper_levels":3},"plan":%s,"periods":100000,"samples_per_period":100000}`, plan))
	if status != 400 {
		t.Fatalf("oversized simulate: status %d: %s", status, b)
	}
	// A slice voltage is 0 (off) or inside the platform range [0.001,
	// 10] V. At 1e200 V the trace overflows JSON, and 1e-300 V is no
	// voltage a core runs at.
	for _, tc := range []struct {
		volt   string
		status int
	}{{"1.3", 200}, {"0", 200}, {"1e200", 400}, {"11", 400}, {"1e-300", 400}} {
		if status, b := postJSON(t, ts.URL+"/v1/simulate", simulateBody(tc.volt)); status != tc.status {
			t.Fatalf("slice voltage %s: status %d, want %d: %s", tc.volt, status, tc.status, b)
		}
	}
}

// simulateBody is a /v1/simulate request for a 2×1, two-level platform
// whose plan runs core 0 at the given voltage and core 1 at 0.6 V.
func simulateBody(volt string) string {
	return fmt.Sprintf(`{"platform":{"rows":2,"cols":1,"paper_levels":2},"plan":{"version":1,"method":"AO","feasible":true,"m":1,"period_s":0.02,`+
		`"cores":[[{"Seconds":0.02,"Voltage":%s}],[{"Seconds":0.02,"Voltage":0.6}]]}}`, volt)
}

func TestServeHealthzAndStats(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	postJSON(t, ts.URL+"/v1/maximize", maximizeBody("LNS"))
	postJSON(t, ts.URL+"/v1/maximize", maximizeBody("LNS"))
	if status, b := postJSON(t, ts.URL+"/v1/maximize", `junk`); status != 400 {
		t.Fatalf("junk request: %d: %s", status, b)
	}

	var st ServerStats
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
	ep := st.Requests["maximize"]
	if ep.Count != 3 || ep.Errors != 1 || ep.Latency.Count != 3 {
		t.Fatalf("maximize endpoint stats: %+v", ep)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge should be 0 at rest, got %d", st.InFlight)
	}
	_ = srv
}

func TestServeShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t)
	// Prime one request so the server has seen traffic.
	if status, b := postJSON(t, ts.URL+"/v1/maximize", maximizeBody("LNS")); status != 200 {
		t.Fatalf("prime: %d: %s", status, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// New solve requests are refused while draining/after drain.
	status, b := postJSON(t, ts.URL+"/v1/maximize", maximizeBody("LNS"))
	if status != 503 {
		t.Fatalf("post-shutdown request: status %d: %s", status, b)
	}
	// healthz reports the drain.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// waitIdle blocks until every in-flight request, async audit and
// stale-plan refresh has finished, so tests observe the counters
// deterministically. No request may start while it waits.
func (s *Server) waitIdle() { s.work.Wait() }
