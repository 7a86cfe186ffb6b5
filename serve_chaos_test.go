package thermosc

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeChaos hammers the planning daemon with concurrent requests
// under tiny deadlines while a fault hook randomly panics inside the
// solver flight, and asserts the two invariants the resilience layer
// exists for:
//
//  1. the daemon never dies — every request gets an HTTP answer from
//     the allowed status set, and the server still serves cleanly after
//     the storm;
//  2. every 200 body carries a plan that passes the independent
//     verification oracle (Platform.Audit) at its request's threshold —
//     overload and injected faults may degrade plans, never unverify
//     them;
//  3. once Shutdown has drained every request, audit and refresh, no
//     flight stays registered and admission holds no queued request and
//     no solve slot — the storm's panics, short deadlines, sheds and
//     stale refreshes leak neither structure.
//
// The storm is seed-pinned. THERMOSC_CHAOS_REQUESTS scales the request
// count (CI runs a bigger storm than the default `go test`);
// THERMOSC_CHAOS_STATS names a file to dump the final /v1/stats
// snapshot into (uploaded as a CI artifact); THERMOSC_CHAOS_STORE
// selects the plan store the storm writes through (mem, or file for a
// store with a crash-safe append-only log — CI runs both).
func TestServeChaos(t *testing.T) {
	requests := 48
	if v := os.Getenv("THERMOSC_CHAOS_REQUESTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad THERMOSC_CHAOS_REQUESTS %q", v)
		}
		requests = n
	}
	const clients = 8
	const panicRate = 0.2

	cfg := ServerConfig{
		PlanCacheSize:    16, // small enough to churn evictions
		DefaultTimeout:   150 * time.Millisecond,
		MaxTimeout:       time.Second,
		AuditEvery:       1,
		SolveConcurrency: 2,
		SolveQueue:       4,
	}
	// THERMOSC_CHAOS_STORE=file runs the storm over a single-node cluster
	// whose plan store has an append-only log, so every complete plan
	// rides the fsync'd Put path under fault injection.
	switch backend := os.Getenv("THERMOSC_CHAOS_STORE"); backend {
	case "", "mem":
	case "file":
		cfg.Cluster = &ClusterConfig{
			Self:      "http://chaos-local",
			StorePath: filepath.Join(t.TempDir(), "chaos-planstore.log"),
		}
	default:
		t.Fatalf("bad THERMOSC_CHAOS_STORE %q (want mem or file)", backend)
	}
	srv := NewServer(cfg)
	srv.brk = newBreaker(breakerWindow, breakerThreshold, breakerMinSamples, 100*time.Millisecond)
	var hookMu sync.Mutex
	var faultsArmed atomic.Bool
	faultsArmed.Store(true)
	hookRand := rand.New(rand.NewSource(7))
	srv.solveHook = func(Method) {
		if !faultsArmed.Load() {
			return
		}
		hookMu.Lock()
		boom := hookRand.Float64() < panicRate
		delay := time.Duration(hookRand.Intn(3)) * time.Millisecond
		hookMu.Unlock()
		time.Sleep(delay)
		if boom {
			panic("chaos: injected solver fault")
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Platforms the storm draws from (small, so truncated solves still
	// churn quickly), plus an impossible threshold to exercise the typed
	// refusal under fire.
	type variant struct {
		rows, cols, levels int
		tmax               float64
	}
	variants := []variant{
		{2, 1, 3, 65}, {2, 1, 3, 55}, {2, 2, 2, 65}, {2, 2, 2, 45},
		{2, 1, 2, 36}, {2, 1, 3, 35.01}, // near/below any mode's steady state
	}
	timeouts := []float64{0.0005, 0.002, 0.01, 0} // 0 = server default
	methods := []string{"AO", "PCO", "LNS", "EXS", "Ideal"}
	plats := map[string]*Platform{}
	for _, v := range variants {
		key := fmt.Sprintf("%dx%d/%d", v.rows, v.cols, v.levels)
		if _, ok := plats[key]; !ok {
			p, err := New(v.rows, v.cols, WithPaperLevels(v.levels))
			if err != nil {
				t.Fatal(err)
			}
			plats[key] = p
		}
	}

	allowed := map[int]bool{200: true, 422: true, 429: true, 500: true, 503: true, 504: true}
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	errCh := make(chan error, requests)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < requests/clients; i++ {
				v := variants[rng.Intn(len(variants))]
				method := methods[rng.Intn(len(methods))]
				timeout := timeouts[rng.Intn(len(timeouts))]
				body := fmt.Sprintf(`{"platform":{"rows":%d,"cols":%d,"paper_levels":%d},"tmax_c":%g,"method":%q`,
					v.rows, v.cols, v.levels, v.tmax, method)
				if timeout > 0 {
					body += fmt.Sprintf(`,"timeout_s":%g`, timeout)
				}
				body += "}"

				resp, err := client.Post(ts.URL+"/v1/maximize", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- fmt.Errorf("transport error (daemon died?): %w", err)
					return
				}
				var mr MaximizeResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&mr)
				resp.Body.Close()
				if !allowed[resp.StatusCode] {
					errCh <- fmt.Errorf("status %d outside the allowed set for %s", resp.StatusCode, body)
					continue
				}
				if resp.StatusCode != 200 {
					continue
				}
				if decodeErr != nil {
					errCh <- fmt.Errorf("200 with undecodable body: %v", decodeErr)
					continue
				}
				var plan Plan
				if err := json.Unmarshal(mr.Plan, &plan); err != nil {
					errCh <- fmt.Errorf("200 with undecodable plan: %v", err)
					continue
				}
				if !plan.Feasible || plan.Throughput <= 0 {
					errCh <- fmt.Errorf("200 served a useless plan (feasible=%v tpt=%v) for %s",
						plan.Feasible, plan.Throughput, body)
					continue
				}
				plat := plats[fmt.Sprintf("%dx%d/%d", v.rows, v.cols, v.levels)]
				rep, err := plat.Audit(&plan, v.tmax)
				if err != nil {
					errCh <- fmt.Errorf("auditing served plan: %v", err)
					continue
				}
				if !rep.OK {
					errCh <- fmt.Errorf("served plan FAILS the oracle for %s: %s", body, rep)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The daemon must still be fully functional with the fault hook
	// disarmed (atomically — in-flight stale refreshes still read it).
	faultsArmed.Store(false)
	status, b := postJSON(t, ts.URL+"/v1/maximize", maximizeBody("AO"))
	if status != 200 {
		t.Fatalf("post-storm solve: status %d: %s", status, b)
	}
	if status, _ := getStatus(t, ts.URL+"/healthz"); status != 200 {
		t.Fatal("daemon unhealthy after the storm")
	}
	srv.waitIdle()

	st := srv.Stats()
	t.Logf("chaos stats: %d sheds, %d panics recovered, %d degraded served, %d stale served, breaker %s (%d trips)",
		st.Resilience.ShedTotal, st.Resilience.PanicsRecovered, st.Resilience.DegradedServed,
		st.Resilience.StaleServed, st.Resilience.BreakerState, st.Resilience.BreakerTrips)
	if out := os.Getenv("THERMOSC_CHAOS_STATS"); out != "" {
		blob, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after the storm: %v", err)
	}
	srv.flights.mu.Lock()
	flights := len(srv.flights.m)
	srv.flights.mu.Unlock()
	if depth, held := srv.admit.depth(), len(srv.admit.sem); flights != 0 || depth != 0 || held != 0 {
		t.Fatalf("after shutdown: %d flights registered, queue depth %d, %d solve slots held", flights, depth, held)
	}
}
