package thermosc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"thermosc/internal/cluster"
)

// TestClusterSoak drives a seed-pinned zipf workload through a 3-replica
// in-process fleet and asserts the invariants the cluster layer exists
// for:
//
//  1. exact accounting — every generated request lands in exactly one of
//     served/infeasible/shed/error, and errors are zero (sheds are
//     legitimate backpressure, transport failures are not);
//  2. replication soundness — no canonical key ever returns two
//     different complete plans, no matter which replica answered, and a
//     direct post-load probe of every replica returns byte-identical
//     plans;
//  3. the fleet converges — after the load all three replicated stores
//     hold the same keys with the same plan bytes;
//  4. the serve-source accounting holds per node (the sum invariant).
//
// THERMOSC_CLUSTER_REQUESTS scales the request count (CI runs 100k);
// THERMOSC_CLUSTER_REPORT names a file for the load report artifact;
// THERMOSC_CLUSTER_STORE selects the store configuration (mem, or file
// for a store with a log — CI runs the soak once per configuration).
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak is not a -short test")
	}
	requests := 1500
	if v := os.Getenv("THERMOSC_CLUSTER_REQUESTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad THERMOSC_CLUSTER_REQUESTS %q", v)
		}
		requests = n
	}
	// Scale the arrival rate with the request count so the wall-clock
	// stays bounded: ~15 s of pure arrival time, clamped to [300, 3000]/s.
	rate := float64(requests) / 15
	if rate < 300 {
		rate = 300
	}
	if rate > 3000 {
		rate = 3000
	}

	tc := startTestCluster(t, 3, 100*time.Millisecond, storeBackendMutate(t))

	report, err := cluster.RunLoad(context.Background(), cluster.LoadConfig{
		Targets:  tc.urls,
		Requests: requests,
		RateHz:   rate,
		Curve:    cluster.CurvePoisson,
		Seed:     1,
		// The ≤9-core catalog keeps every cold solve fast even under the
		// race detector's ~10-20x slowdown (make cluster-soak runs -race),
		// and the deadlines sit far above that: a 504 here would be a real
		// failure, not load shaping.
		MaxCores:    9,
		TimeoutMinS: 60,
		TimeoutMaxS: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := os.Getenv("THERMOSC_CLUSTER_REPORT"); out != "" {
		rb, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(rb, '\n'), 0o644); err != nil {
			t.Fatalf("writing report artifact: %v", err)
		}
	}
	t.Logf("soak: %d requests → %d served, %d shed, %d infeasible, %d errors; hit ratio %.3f; p99 %.3fs; sources %v",
		report.Requests, report.Served, report.Shed, report.Infeasible, report.Errors,
		report.HitRatio, report.LatencyP99S, report.BySource)

	// 1. Exact accounting, zero errors.
	if sum := report.Served + report.Infeasible + report.Shed + report.Errors; sum != requests {
		t.Fatalf("accounting sums to %d of %d: %+v", sum, requests, report)
	}
	if report.Errors > 0 {
		t.Fatalf("%d requests errored: %v", report.Errors, report.ByStatus)
	}
	if report.Served == 0 {
		t.Fatal("nothing served")
	}

	// 2. Replication soundness over the whole run.
	if len(report.PlanMismatches) > 0 {
		t.Fatalf("divergent complete plans for keys %v", report.PlanMismatches)
	}

	// Zipf skew must make the cache earn its keep: with ~18 hot keys and
	// hundreds-to-thousands of requests, most serves are hits.
	if report.HitRatio < 0.8 {
		t.Fatalf("hit ratio %.3f below the 0.80 floor", report.HitRatio)
	}

	// 3. Post-load convergence: drive anti-entropy to quiescence and
	// compare the stores' entries (syncAll fails the test if they never
	// equalize).
	tc.syncAll(t)

	// Direct probe: every replica must return byte-identical complete
	// plans for one body owned by each replica.
	for _, body := range bodiesByOwner(t, tc) {
		var ref []byte
		for i, url := range tc.urls {
			status, mr := postMaximize(t, url, body)
			if status != http.StatusOK {
				t.Fatalf("probe on replica %d: HTTP %d", i, status)
			}
			if mr.Degraded {
				t.Fatalf("probe on replica %d returned a degraded plan", i)
			}
			if ref == nil {
				ref = mr.Plan
			} else if !bytes.Equal(ref, mr.Plan) {
				t.Fatalf("replica %d plan differs from replica 0 for the same key", i)
			}
		}
	}

	// 4. Per-node serve-source accounting.
	sumInvariant(t, tc)
}
