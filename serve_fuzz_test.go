package thermosc

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzServeRequest fuzzes the /v1/maximize request decoder: arbitrary
// bytes must never panic, every rejection must be a 4xx requestError
// (malformed JSON, non-finite Tmax, oversized grids, junk fields), and
// any accepted request must canonicalize idempotently — re-encoding the
// normalized request and parsing it again must reproduce the same cache
// keys, or the plan cache would fragment.
func FuzzServeRequest(f *testing.F) {
	seeds := []string{
		`{"platform":{"rows":3,"cols":1,"paper_levels":3},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":2,"voltages":[0.6,0.9,1.3]},"tmax_c":70,"method":"pco","timeout_s":5}`,
		`{"platform":{"rows":1,"cols":1,"core_level":true},"tmax_c":80,"method":"EXS"}`,
		`{"platform":{"rows":2,"cols":1,"stack_layers":2},"tmax_c":65,"method":"LNS"}`,
		`{"platform":{"rows":2,"cols":1,"core_scales":[1,2]},"tmax_c":65,"method":"Ideal"}`,
		`{"platform":{"rows":2,"cols":1,"overhead_s":0},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":99,"cols":99},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1},"tmax_c":1e999,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1},"tmax_c":NaN,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO","timeout_s":-1}`,
		`{"platform":{"rows":-1,"cols":1},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"voltages":[0.6,1e308]},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"period_s":-3},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"ambient_c":-400},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"period_s":5e-324},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"period_s":1e-310},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"voltages":[5e-324,1.0]},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"core_edge_m":1e-300},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"convection_r":4.9e-324},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"ambient_c":35},"tmax_c":35.0001,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO","timeout_s":1e300}`,
		// Degraded-path seed: a timeout far below any solve time drives the
		// anytime fallback chain end to end when served.
		`{"platform":{"rows":3,"cols":3},"tmax_c":65,"method":"PCO","timeout_s":0.001}`,
		`{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO","timeout_s":1e999}`,
		`{"platform":{"rows":2,"cols":1,"period_s":1e999},"tmax_c":65,"method":"AO"}`,
		`{"unknown_field":1}`,
		`{"platform":`,
		`[]`,
		`null`,
		``,
		"\x00\xff\xfe",
		// Large-floorplan seeds: the sparse backend serves up to 256 cores,
		// so the decoder must canonicalize big meshes, stacks, and long
		// 1xN strips — and reject one past the cap.
		`{"platform":{"rows":16,"cols":16,"paper_levels":3},"tmax_c":70,"method":"AO"}`,
		`{"platform":{"rows":8,"cols":8,"stack_layers":4},"tmax_c":70,"method":"AO","timeout_s":2}`,
		`{"platform":{"rows":1,"cols":256},"tmax_c":70,"method":"AO"}`,
		`{"platform":{"rows":1,"cols":16,"stack_layers":16},"tmax_c":70,"method":"PCO"}`,
		`{"platform":{"rows":16,"cols":17},"tmax_c":70,"method":"AO"}`,
		// Heterogeneous-core-scale seeds, including the stacked layer-major
		// form and the large platform where convection_r 0 stays canonical
		// (auto-scaled package) while an explicit value pins the sink.
		`{"platform":{"rows":8,"cols":8,"stack_layers":4,"core_scales":[` +
			strings.Repeat("0.45,1.6,", 127) + `0.45,1.6]},"tmax_c":70,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":2,"stack_layers":2,"core_scales":[1,1,1,1,2,2,2,2]},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":16,"cols":16,"convection_r":0.05},"tmax_c":70,"method":"AO"}`,
		`{"platform":{"rows":16,"cols":16,"core_scales":[1,2]},"tmax_c":70,"method":"AO"}`,
		// Degenerate meshes: single stacked layer (planar spelling),
		// zero-area and negative-area cores → 400, never a panic.
		`{"platform":{"rows":2,"cols":1,"stack_layers":1},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":1,"cols":1},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"core_edge_m":-0.004},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":2,"cols":1,"core_edge_m":0},"tmax_c":65,"method":"AO"}`,
		`{"platform":{"rows":1,"cols":256,"core_scales":[` +
			strings.Repeat("0,", 255) + `0]},"tmax_c":70,"method":"AO"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	lim := serveLimits{maxCores: 256, maxVoltages: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, planKey, platKey, err := parseMaximizeRequest(data, lim)
		if err != nil {
			var reqErr *requestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("rejection is not a requestError: %T %v", err, err)
			}
			if reqErr.status < 400 || reqErr.status > 499 {
				t.Fatalf("rejection status %d is not a 4xx: %v", reqErr.status, err)
			}
			return
		}
		// Accepted: the canonical form must stay within the advertised caps…
		cores := req.Platform.Rows * req.Platform.Cols * req.Platform.StackLayers
		if cores < 1 || cores > lim.maxCores {
			t.Fatalf("accepted request with %d cores (cap %d)", cores, lim.maxCores)
		}
		if len(req.Platform.Voltages) == 0 || len(req.Platform.Voltages) > lim.maxVoltages {
			t.Fatalf("accepted request with %d canonical voltages", len(req.Platform.Voltages))
		}
		if planKey == "" || platKey == "" {
			t.Fatal("accepted request with empty cache keys")
		}
		// …and canonicalization must be idempotent: round-tripping the
		// normalized request reproduces the exact same keys.
		rt, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding canonical request: %v", err)
		}
		req2, planKey2, platKey2, err := parseMaximizeRequest(rt, lim)
		if err != nil {
			t.Fatalf("canonical request re-rejected: %v\n%s", err, rt)
		}
		if planKey2 != planKey || platKey2 != platKey {
			t.Fatalf("canonicalization not idempotent:\n key  %q\n key' %q\n plat  %q\n plat' %q\n body %s",
				planKey, planKey2, platKey, platKey2, rt)
		}
		if req2.Method != req.Method || req2.TmaxC != req.TmaxC {
			t.Fatalf("round-trip changed the request: %+v vs %+v", req, req2)
		}
	})
}

// FuzzSimulateRequest fuzzes the /v1/simulate request decoder on
// platforms of at most four cores: arbitrary bytes must never panic,
// every rejection must be a 4xx requestError, and every accepted request
// whose platform builds must simulate to a reply json.Marshal accepts. A
// reply that fails to encode would reach the client as a 200 with no
// body, since writeJSON has sent the status by then.
func FuzzSimulateRequest(f *testing.F) {
	for _, v := range []string{"1.3", "0", "1e200", "11", "1e-300", "10", "0.001", "5e-324"} {
		f.Add([]byte(simulateBody(v)))
	}
	seeds := []string{
		`{"platform":{"rows":2,"cols":2,"voltages":[0.6,10]},"plan":{"version":1,"period_s":1e-6,"cores":[` +
			strings.Repeat(`[{"Seconds":5e-7,"Voltage":10},{"Seconds":5e-7,"Voltage":0.6}],`, 3) +
			`[{"Seconds":1e-6,"Voltage":0}]]},"periods":4,"samples_per_period":8}`,
		`{"platform":{"rows":1,"cols":2,"stack_layers":2},"plan":{"version":1,"period_s":3600,"cores":[` +
			strings.Repeat(`[{"Seconds":3600,"Voltage":1.3}],`, 3) + `[{"Seconds":3600,"Voltage":1.3}]]}}`,
		`{"platform":{"rows":2,"cols":1,"core_scales":[0.5,2]},"plan":{"version":1,"period_s":0.02,"cores":[[{"Seconds":0.02,"Voltage":1}],[{"Seconds":0.02,"Voltage":1}]]},"periods":1,"samples_per_period":1}`,
		`{"platform":{"rows":2,"cols":1},"plan":{"version":1,"period_s":0.02,"cores":[[{"Seconds":0.02,"Voltage":1}]]}}`,
		`{"platform":{"rows":2,"cols":1},"plan":{"version":1,"period_s":0.02,"cores":[[{"Seconds":0.01,"Voltage":1}],[{"Seconds":0.02,"Voltage":1}]]}}`,
		`{"platform":{"rows":2,"cols":1},"plan":{"version":2}}`,
		`{"platform":{"rows":3,"cols":3},"plan":{"version":1}}`,
		`{"platform":{"rows":2,"cols":1},"plan":{"version":1,"feasible":false}}`,
		`{"platform":{"rows":2,"cols":1},"plan":{"version":1,"period_s":0.02,"cores":[[{"Seconds":0.02,"Voltage":1}],[{"Seconds":0.02,"Voltage":1}]]},"periods":-1}`,
		`{"platform":{"rows":2,"cols":1}}`,
		`{"platform":{"rows":2,"cols":1},"plan":null}`,
		`{"plan":{}} trailing`,
		`null`,
		``,
		// periods × samples_per_period overflows int: 2^64 wraps to 0,
		// 3037000500² wraps negative. Both must hit the trace cap.
		`{"platform":{"rows":2,"cols":1},"plan":{"version":1,"period_s":0.02,"cores":[[{"Seconds":0.02,"Voltage":1}],[{"Seconds":0.02,"Voltage":1}]]},"periods":4294967296,"samples_per_period":4294967296}`,
		`{"platform":{"rows":2,"cols":1},"plan":{"version":1,"period_s":0.02,"cores":[[{"Seconds":0.02,"Voltage":1}],[{"Seconds":0.02,"Voltage":1}]]},"periods":3037000500,"samples_per_period":3037000500}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	lim := serveLimits{maxCores: 4, maxVoltages: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, plan, periods, samples, _, err := parseSimulateRequest(data, lim)
		if err != nil {
			var reqErr *requestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("rejection is not a requestError: %T %v", err, err)
			}
			if reqErr.status < 400 || reqErr.status > 499 {
				t.Fatalf("rejection status %d is not a 4xx: %v", reqErr.status, err)
			}
			return
		}
		plat, err := spec.platform()
		if err != nil {
			return // the server answers 400 "building platform"
		}
		resp, err := simulate(plat, plan, periods, samples)
		if err != nil {
			t.Fatalf("accepted request did not simulate: %v\n%s", err, data)
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("simulate reply does not encode: %v\n%s", err, data)
		}
	})
}
