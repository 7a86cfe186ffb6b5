package thermosc

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// The fallback chain's terminal plan: constant, feasible, tagged, and
// pre-checked by the oracle — even under an expired deadline.
func TestSafeFloorPlan(t *testing.T) {
	plat, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := plat.SafeFloorPlan(60)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded || plan.DegradedReason != "safe-floor" {
		t.Fatalf("floor plan not tagged: degraded=%v reason=%q", plan.Degraded, plan.DegradedReason)
	}
	if plan.Method != MethodLNS || !plan.Feasible || plan.Throughput <= 0 || plan.M != 1 {
		t.Fatalf("floor plan degenerate: %+v", plan)
	}
	rep, err := plat.Audit(plan, 60)
	if err != nil || !rep.OK {
		t.Fatalf("floor plan fails its own oracle: %v %v", err, rep)
	}
}

// A complete solve passes through MaximizeResilient byte-identical to
// MaximizeContext — resilience must not perturb the deterministic path.
func TestMaximizeResilientCompletePassThrough(t *testing.T) {
	plat, err := New(2, 1, WithPaperLevels(3))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := plat.MaximizeContext(context.Background(), MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	resilient, err := plat.MaximizeResilient(context.Background(), MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	if resilient.Degraded {
		t.Fatalf("unpressured solve came back degraded: %q", resilient.DegradedReason)
	}
	direct.Elapsed, resilient.Elapsed = 0, 0
	db, _ := json.Marshal(direct)
	rb, _ := json.Marshal(resilient)
	if string(db) != string(rb) {
		t.Fatalf("resilient plan differs from the direct solve:\n%s\n%s", db, rb)
	}
}

// Under a deadline too short for any search, the chain still produces a
// verified plan — degraded best-so-far or the safe floor — never an
// error and never an unverified schedule.
func TestMaximizeResilientDeadlineFallsBack(t *testing.T) {
	plat, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Both an expired context and a live-but-tiny deadline must land on a
	// valid plan.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	tiny, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	for name, ctx := range map[string]context.Context{"expired": expired, "tiny": tiny} {
		plan, err := plat.MaximizeResilient(ctx, MethodPCO, 65)
		if err != nil {
			t.Fatalf("%s deadline: chain refused: %v", name, err)
		}
		if !plan.Degraded || !plan.Feasible || plan.Throughput <= 0 {
			t.Fatalf("%s deadline: fallback plan unusable: degraded=%v feasible=%v tpt=%v",
				name, plan.Degraded, plan.Feasible, plan.Throughput)
		}
		rep, err := plat.Audit(plan, 65)
		if err != nil || !rep.OK {
			t.Fatalf("%s deadline: served plan fails the oracle: %v %v", name, err, rep)
		}
	}
}

// A platform that cannot meet the threshold at all refuses with the
// typed ErrInfeasible — from every link of the chain.
func TestMaximizeResilientInfeasibleRefusal(t *testing.T) {
	plat, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tmax := plat.AmbientC() + 0.01 // no mode can stay this cool
	for _, m := range []Method{MethodLNS, MethodAO} {
		plan, err := plat.MaximizeResilient(context.Background(), m, tmax)
		if err == nil {
			t.Fatalf("%s: impossible threshold produced a plan (tpt %v)", m, plan.Throughput)
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: refusal %v is not typed ErrInfeasible", m, err)
		}
	}
	if _, err := plat.SafeFloorPlan(tmax); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("floor refusal not typed: %v", err)
	}
}
