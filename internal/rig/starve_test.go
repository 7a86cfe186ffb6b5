package rig

import (
	"testing"
	"time"

	"thermosc/internal/solver"
)

// A nanosecond budget expires before AO produces any incumbent: the
// anytime planner must land on the constant safe floor, tagged as such,
// and the floor must be a real schedule.
func TestPlanAnytimeStarvedLandsOnFloor(t *testing.T) {
	sc := &Scenario{}
	r, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	sched, reason, err := PlanAnytime(r, time.Nanosecond)
	if err != nil {
		t.Fatalf("starved plan refused: %v", err)
	}
	if reason != solver.DegradedFallback {
		t.Fatalf("reason %q, want the safe floor", reason)
	}
	if sched == nil || sched.NumCores() != r.Scenario().Rows*r.Scenario().Cols {
		t.Fatalf("floor schedule degenerate: %+v", sched)
	}
	// A generous budget completes and is NOT degraded.
	sched, reason, err = PlanAnytime(r, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if reason != solver.DegradedNone || sched == nil {
		t.Fatalf("unpressured plan degraded: %q", reason)
	}
}

// The starved soak is the tentpole's closing claim: with the planner
// deadline-starved mid-scenario — every replan forced onto the degraded
// chain — PlanGuard plus the degraded plan still hold Tmax + guard
// across seed-pinned fault streams, and the replays stay byte-identical.
func TestSoakStarvedHoldsGuardBand(t *testing.T) {
	if testing.Short() {
		t.Skip("starved soak is a multi-scenario closed-loop run")
	}
	rep, err := SoakStarved(nil, 4, 1, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("starved soak failed: %d violations, %d nondeterministic", rep.Violations, rep.NonDeterministic)
	}
	if rep.Controller != "plan-guard/starved-replan" {
		t.Fatalf("controller %q", rep.Controller)
	}
	if rep.PlanBudgetS <= 0 {
		t.Fatalf("report does not carry the plan budget: %+v", rep)
	}
	// A nanosecond budget cannot complete any AO solve: every scenario
	// must have run on a degraded replan, and the report must say so.
	if rep.DegradedPlans != rep.N {
		t.Fatalf("%d/%d scenarios on degraded replans, want all", rep.DegradedPlans, rep.N)
	}
	for i, oc := range rep.Scenarios {
		if oc.PlanDegraded != string(solver.DegradedFallback) {
			t.Fatalf("scenario %d replan reason %q", i, oc.PlanDegraded)
		}
		if oc.Report.ViolationS > 0 {
			t.Fatalf("scenario %d violated Tmax+guard on the starved replan: %+v", i, oc.Report)
		}
	}

	// The budget knob is validated.
	if _, err := SoakStarved(nil, 1, 1, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}
