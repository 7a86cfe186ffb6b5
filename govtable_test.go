package thermosc

import (
	"encoding/json"
	"testing"
)

func buildTable(t *testing.T) (*Platform, *GovernorTable) {
	t.Helper()
	p, err := New(3, 1, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := p.BuildGovernorTable(MethodAO, []float64{65, 50, 55, 60})
	if err != nil {
		t.Fatal(err)
	}
	return p, tbl
}

func TestGovernorTableBuildAndLookup(t *testing.T) {
	_, tbl := buildTable(t)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 55, 60, 65}
	for i := range want {
		if tbl.Entries[i].TmaxC != want[i] {
			t.Fatalf("threshold %d = %v, want %v", i, tbl.Entries[i].TmaxC, want[i])
		}
	}
	// Exact hit.
	plan, tmax, ok := tbl.PlanFor(60)
	if !ok || tmax != 60 || !plan.Feasible {
		t.Fatalf("PlanFor(60) = %v %v %v", plan, tmax, ok)
	}
	// Between rungs: round DOWN (the guarantee direction).
	_, tmax, ok = tbl.PlanFor(63.9)
	if !ok || tmax != 60 {
		t.Fatalf("PlanFor(63.9) chose %v", tmax)
	}
	// Above the ladder: hottest entry.
	_, tmax, ok = tbl.PlanFor(90)
	if !ok || tmax != 65 {
		t.Fatalf("PlanFor(90) chose %v", tmax)
	}
	// Below the ladder: no certificate.
	if _, _, ok := tbl.PlanFor(45); ok {
		t.Fatal("PlanFor(45) should have no entry")
	}
	// Monotone throughput across the ladder.
	prev := -1.0
	for _, e := range tbl.Entries {
		if e.Plan.Throughput < prev {
			t.Fatalf("throughput not monotone: %v", tbl.Entries)
		}
		prev = e.Plan.Throughput
	}
}

func TestGovernorTableJSONRoundTrip(t *testing.T) {
	p, tbl := buildTable(t)
	data, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var back GovernorTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(tbl.Entries) {
		t.Fatal("entries lost")
	}
	// A reloaded plan still verifies on the platform.
	plan, tmax, ok := back.PlanFor(65)
	if !ok {
		t.Fatal("lookup failed after reload")
	}
	peak, err := p.VerifyPeakC(plan, 24)
	if err != nil {
		t.Fatal(err)
	}
	if peak > tmax+0.01 {
		t.Fatalf("reloaded plan peaks at %.3f above its %.1f threshold", peak, tmax)
	}
}

func TestGovernorTableSwitching(t *testing.T) {
	p, tbl := buildTable(t)
	infos, err := tbl.AnalyzeSwitching(p)
	if err != nil {
		t.Fatal(err)
	}
	// 4 entries → 3 adjacent pairs × 2 directions.
	if len(infos) != 6 {
		t.Fatalf("got %d switch analyses", len(infos))
	}
	for _, info := range infos {
		if !info.Safe {
			t.Fatalf("switch %.1f→%.1f unsafe: peak %.3f, settle %.3fs",
				info.FromC, info.ToC, info.TransientPeakC, info.SettleSeconds)
		}
		if info.ToC > info.FromC {
			// Ramping up: must never exceed the destination threshold.
			if info.TransientPeakC > info.ToC+0.05 {
				t.Fatalf("ramp-up overshoot: %+v", info)
			}
		} else {
			// Throttling down: bounded by the source, settles in finite
			// time commensurate with the thermal time constant.
			if info.TransientPeakC > info.FromC+0.05 {
				t.Fatalf("throttle-down overshoot: %+v", info)
			}
			if info.SettleSeconds < 0 || info.SettleSeconds > 12*p.DominantTimeConstant() {
				t.Fatalf("implausible settle time: %+v", info)
			}
		}
	}
}

func TestGovernorTableValidation(t *testing.T) {
	p, err := New(2, 1, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BuildGovernorTable(MethodAO, nil); err == nil {
		t.Fatal("empty ladder must error")
	}
	if _, err := p.BuildGovernorTable(MethodAO, []float64{60, 60}); err == nil {
		t.Fatal("duplicate thresholds must error")
	}
	if _, err := p.BuildGovernorTable(MethodAO, []float64{30}); err == nil {
		t.Fatal("threshold below ambient must error")
	}
	// Corrupt tables are rejected on load.
	bad := []byte(`{"entries":[{"tmax_c":60,"plan":null}]}`)
	var tbl GovernorTable
	if err := json.Unmarshal(bad, &tbl); err == nil {
		t.Fatal("missing plan must be rejected")
	}
	bad = []byte(`{"entries":[]}`)
	if err := json.Unmarshal(bad, &tbl); err == nil {
		t.Fatal("empty table must be rejected")
	}
}
