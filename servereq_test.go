package thermosc

import (
	"math"
	"strings"
	"testing"
	"time"
)

var testLimits = serveLimits{maxCores: 16, maxVoltages: 64}

func TestParseMaximizeRequestValidation(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"trailing data", `{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO"} {}`, "trailing data"},
		{"stack too deep", `{"platform":{"rows":2,"cols":1,"stack_layers":20},"tmax_c":65,"method":"AO"}`, "cores exceeds"},
		{"negative stack", `{"platform":{"rows":2,"cols":1,"stack_layers":-2},"tmax_c":65,"method":"AO"}`, "stack_layers"},
		{"core_level with stack", `{"platform":{"rows":2,"cols":1,"stack_layers":2,"core_level":true},"tmax_c":65,"method":"AO"}`, "mutually exclusive"},
		{"scales with core_level", `{"platform":{"rows":2,"cols":1,"core_level":true,"core_scales":[1,2]},"tmax_c":65,"method":"AO"}`, "core-level"},
		{"wrong stacked scales length", `{"platform":{"rows":2,"cols":1,"stack_layers":2,"core_scales":[1,2]},"tmax_c":65,"method":"AO"}`, "core_scales"},
		{"bad paper levels", `{"platform":{"rows":2,"cols":1,"paper_levels":9},"tmax_c":65,"method":"AO"}`, "platform"},
		{"too many voltages", `{"platform":{"rows":2,"cols":1,"voltages":[` + strings.Repeat("0.6,", 64) + `1.3]},"tmax_c":65,"method":"AO"}`, "voltage levels"},
		{"huge voltage", `{"platform":{"rows":2,"cols":1,"voltages":[0.6,99]},"tmax_c":65,"method":"AO"}`, "outside [0.001, 10]"},
		{"subnormal voltage", `{"platform":{"rows":2,"cols":1,"voltages":[5e-324,1.0]},"tmax_c":65,"method":"AO"}`, "outside [0.001, 10]"},
		{"subnormal period", `{"platform":{"rows":2,"cols":1,"period_s":5e-324},"tmax_c":65,"method":"AO"}`, "period_s"},
		{"overflowing period", `{"platform":{"rows":2,"cols":1,"period_s":1e999},"tmax_c":65,"method":"AO"}`, "period_s"},
		{"subnormal core edge", `{"platform":{"rows":2,"cols":1,"core_edge_m":1e-300},"tmax_c":65,"method":"AO"}`, "core_edge_m"},
		{"subnormal convection", `{"platform":{"rows":2,"cols":1,"convection_r":4.9e-324},"tmax_c":65,"method":"AO"}`, "convection_r"},
		{"tmax within a mK of ambient", `{"platform":{"rows":2,"cols":1,"ambient_c":35},"tmax_c":35.0001,"method":"AO"}`, "not above ambient"},
		{"overflowing timeout", `{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO","timeout_s":1e999}`, "decoding"},
		{"NaN timeout", `{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO","timeout_s":NaN}`, "decoding"},
		{"ambient below zero K", `{"platform":{"rows":2,"cols":1,"ambient_c":-300},"tmax_c":65,"method":"AO"}`, "ambient_c"},
		{"negative period", `{"platform":{"rows":2,"cols":1,"period_s":-1},"tmax_c":65,"method":"AO"}`, "period_s"},
		{"period too long", `{"platform":{"rows":2,"cols":1,"period_s":7200},"tmax_c":65,"method":"AO"}`, "period_s"},
		{"overhead beyond period", `{"platform":{"rows":2,"cols":1,"overhead_s":1},"tmax_c":65,"method":"AO"}`, "overhead_s"},
		{"negative overhead", `{"platform":{"rows":2,"cols":1,"overhead_s":-1e-6},"tmax_c":65,"method":"AO"}`, "overhead_s"},
		{"bad core edge", `{"platform":{"rows":2,"cols":1,"core_edge_m":5},"tmax_c":65,"method":"AO"}`, "core_edge_m"},
		{"bad convection", `{"platform":{"rows":2,"cols":1,"convection_r":-0.1},"tmax_c":65,"method":"AO"}`, "convection_r"},
		{"zero core scale", `{"platform":{"rows":2,"cols":1,"core_scales":[0,1]},"tmax_c":65,"method":"AO"}`, "core scale"},
		{"tmax too hot", `{"platform":{"rows":2,"cols":1},"tmax_c":5000,"method":"AO"}`, "plausible"},
	}
	for _, tc := range cases {
		_, _, _, err := parseMaximizeRequest([]byte(tc.body), testLimits)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseMaximizeRequestCanonicalization(t *testing.T) {
	// All-ones core scales are canonically dropped, so the spellings with
	// and without them share a cache key.
	a := `{"platform":{"rows":2,"cols":1,"core_scales":[1,1]},"tmax_c":65,"method":"AO"}`
	b := `{"platform":{"rows":2,"cols":1},"tmax_c":65,"method":"AO"}`
	_, keyA, platA, err := parseMaximizeRequest([]byte(a), testLimits)
	if err != nil {
		t.Fatal(err)
	}
	_, keyB, platB, err := parseMaximizeRequest([]byte(b), testLimits)
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB || platA != platB {
		t.Fatalf("all-ones core_scales changed the key:\n%s\n%s", keyA, keyB)
	}
	// An unsorted duplicated voltage list canonicalizes to the ordered set.
	req, _, _, err := parseMaximizeRequest(
		[]byte(`{"platform":{"rows":2,"cols":1,"voltages":[1.3,0.6,1.3]},"tmax_c":65,"method":"exs"}`), testLimits)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Platform.Voltages) != 2 || req.Platform.Voltages[0] != 0.6 || req.Platform.Voltages[1] != 1.3 {
		t.Fatalf("canonical voltages = %v", req.Platform.Voltages)
	}
	if req.Method != MethodEXS {
		t.Fatalf("method = %q", req.Method)
	}
	// The keys of distinct methods differ.
	_, keyEXS, _, _ := parseMaximizeRequest([]byte(strings.Replace(b, "AO", "EXS", 1)), testLimits)
	if keyEXS == keyB {
		t.Fatal("method is not part of the cache key")
	}
}

// The canonical spec must build the same platform New builds from the
// equivalent options, including the layered and heterogeneous variants.
func TestPlatformSpecBuilds(t *testing.T) {
	for _, body := range []string{
		`{"platform":{"rows":2,"cols":1,"stack_layers":2},"tmax_c":65,"method":"LNS"}`,
		`{"platform":{"rows":2,"cols":1,"core_level":true},"tmax_c":65,"method":"LNS"}`,
		`{"platform":{"rows":2,"cols":1,"core_scales":[1,2]},"tmax_c":65,"method":"LNS"}`,
		`{"platform":{"rows":2,"cols":1,"overhead_s":0},"tmax_c":65,"method":"LNS"}`,
	} {
		req, _, _, err := parseMaximizeRequest([]byte(body), testLimits)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		plat, err := req.Platform.platform()
		if err != nil {
			t.Fatalf("%s: building: %v", body, err)
		}
		want := req.Platform.Rows * req.Platform.Cols * req.Platform.StackLayers
		if plat.NumCores() != want {
			t.Fatalf("%s: %d cores, want %d", body, plat.NumCores(), want)
		}
	}
}

func TestParseSimulateRequestValidation(t *testing.T) {
	plan := `{"version":1,"method":"AO","throughput":1,"peak_c":60,"feasible":true,"m":1,"period_s":0.02,` +
		`"cores":[[{"Seconds":0.02,"Voltage":0.6}],[{"Seconds":0.02,"Voltage":0.6}]],"solver_elapsed_s":0}`
	cases := []struct {
		name, body, wantErr string
	}{
		{"missing plan", `{"platform":{"rows":2,"cols":1}}`, "missing plan"},
		{"junk", `nope`, "decoding request"},
		{"trailing", `{"platform":{"rows":2,"cols":1},"plan":` + plan + `} x`, "trailing data"},
		{"bad plan", `{"platform":{"rows":2,"cols":1},"plan":{"version":99}}`, "decoding plan"},
		{"empty plan", `{"platform":{"rows":2,"cols":1},"plan":{"version":1,"method":"AO","period_s":0.02,"cores":[]}}`, "no schedule"},
		{"core mismatch", `{"platform":{"rows":3,"cols":1},"plan":` + plan + `}`, "plan has 2 cores"},
		{"negative periods", `{"platform":{"rows":2,"cols":1},"plan":` + plan + `,"periods":-1}`, "invalid trace"},
		{"oversized trace", `{"platform":{"rows":2,"cols":1},"plan":` + plan + `,"periods":1000,"samples_per_period":1000}`, "exceeds the cap"},
		// Products that overflow int: 2^64 wraps to 0, 3037000500² wraps negative.
		{"trace wraps to zero", `{"platform":{"rows":2,"cols":1},"plan":` + plan + `,"periods":4294967296,"samples_per_period":4294967296}`, "exceeds the cap"},
		{"trace wraps negative", `{"platform":{"rows":2,"cols":1},"plan":` + plan + `,"periods":3037000500,"samples_per_period":3037000500}`, "exceeds the cap"},
		{"bad platform", `{"platform":{"rows":0,"cols":1},"plan":` + plan + `}`, "rows/cols"},
	}
	for _, tc := range cases {
		_, _, _, _, _, err := parseSimulateRequest([]byte(tc.body), testLimits)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
	// Defaults: periods 3, samples 64.
	_, _, periods, samples, _, err := parseSimulateRequest(
		[]byte(`{"platform":{"rows":2,"cols":1},"plan":`+plan+`}`), testLimits)
	if err != nil {
		t.Fatal(err)
	}
	if periods != 3 || samples != 64 {
		t.Fatalf("defaults: %d periods, %d samples", periods, samples)
	}
}

func TestTimeoutFor(t *testing.T) {
	s := NewServer(ServerConfig{DefaultTimeout: 10 * time.Second, MaxTimeout: time.Minute})
	if d := s.timeoutFor(0); d != 10*time.Second {
		t.Fatalf("default: %s", d)
	}
	if d := s.timeoutFor(2); d != 2*time.Second {
		t.Fatalf("explicit: %s", d)
	}
	if d := s.timeoutFor(3600); d != time.Minute {
		t.Fatalf("capped: %s", d)
	}
	if d := s.timeoutFor(1e-12); d != time.Nanosecond {
		t.Fatalf("sub-nanosecond: %s", d)
	}
	// A huge timeout_s overflows the int64 nanosecond conversion; it must
	// cap at MaxTimeout, never wrap into a near-zero deadline.
	for _, huge := range []float64{1e300, 1e18, math.MaxFloat64} {
		if d := s.timeoutFor(huge); d != time.Minute {
			t.Fatalf("timeoutFor(%g) = %s, want the %s cap", huge, d, time.Minute)
		}
	}
}
