package solver

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// countingCtx counts how many times the solver consults the context —
// the truncation points an anytime solve can be cut at.
type countingCtx struct {
	context.Context
	calls atomic.Int64
}

func (c *countingCtx) Err() error { c.calls.Add(1); return nil }

// countdownCtx reports no cancellation for its first n Err() calls and
// context.Canceled forever after: a deterministic way to land a cancel
// at an exact truncation point (with Workers=1 the poll order is the
// sequential scan order, so runs are reproducible).
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func anytimeProblem(t *testing.T) Problem {
	t.Helper()
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Model: md, Levels: ls, TmaxC: 60,
		Overhead: power.DefaultOverhead(), Workers: 1}
}

// checkAnytime asserts the anytime contract for one truncated run:
// either a typed deadline refusal, or a result that is internally
// consistent — degraded results carry a reason and a real schedule when
// feasible; complete results must match the untruncated baseline bit
// for bit (truncation may degrade, never silently change the answer).
func checkAnytime(t *testing.T, res *Result, err error, baseline *Result, n int64) (degraded bool) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("countdown %d: error %v is not a typed ErrDeadline", n, err)
		}
		return false
	}
	if res.Degraded == DegradedNone {
		if res.Throughput != baseline.Throughput || res.PeakRise != baseline.PeakRise || res.M != baseline.M {
			t.Fatalf("countdown %d: complete result differs from baseline: tpt %v vs %v, peak %v vs %v, m %d vs %d",
				n, res.Throughput, baseline.Throughput, res.PeakRise, baseline.PeakRise, res.M, baseline.M)
		}
		return false
	}
	if res.MEvaluated < 0 {
		t.Fatalf("countdown %d: negative MEvaluated %d", n, res.MEvaluated)
	}
	if res.Feasible && (res.Schedule == nil || res.Throughput <= 0 || res.M < 1) {
		t.Fatalf("countdown %d: degraded feasible result is unusable: %+v", n, res)
	}
	return true
}

// solverAnytimeSweep truncates solve at every k-th context poll from the
// first to past the last and asserts the anytime contract at each point.
func solverAnytimeSweep(t *testing.T, solve func(Problem) (*Result, error)) {
	p := anytimeProblem(t)

	baseline, err := solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Feasible || baseline.Degraded != DegradedNone {
		t.Fatalf("baseline solve degenerate: feasible=%v degraded=%q", baseline.Feasible, baseline.Degraded)
	}

	// Count the truncation points of a full run.
	counter := &countingCtx{Context: context.Background()}
	p.Ctx = counter
	if _, err := solve(p); err != nil {
		t.Fatal(err)
	}
	calls := counter.calls.Load()
	if calls < 2 {
		t.Fatalf("solver consulted the context only %d times — nothing to truncate", calls)
	}

	step := calls / 25
	if step < 1 {
		step = 1
	}
	sawDegraded := false
	for n := int64(0); n <= calls; n += step {
		p.Ctx = newCountdownCtx(n)
		res, err := solve(p)
		if checkAnytime(t, res, err, baseline, n) {
			sawDegraded = true
		}
	}
	// Past the last poll the countdown never fires: complete result.
	p.Ctx = newCountdownCtx(calls + 1)
	res, err := solve(p)
	if err != nil || res.Degraded != DegradedNone {
		t.Fatalf("untruncated countdown run: err=%v degraded=%q", err, res.Degraded)
	}
	if !sawDegraded {
		t.Fatal("no truncation point produced a degraded best-so-far result — the anytime path is dead code")
	}
}

func TestAOAnytimeSweep(t *testing.T)  { solverAnytimeSweep(t, AO) }
func TestPCOAnytimeSweep(t *testing.T) { solverAnytimeSweep(t, PCO) }

// EXS keeps its incumbent: a cancel landing mid-search returns the best
// fully-evaluated feasible assignment tagged DegradedEXS, not an error.
func TestEXSDegradedIncumbent(t *testing.T) {
	md, err := thermal.Default(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Model: md, Levels: power.FullRange(), TmaxC: 65,
		Overhead: power.DefaultOverhead()}

	// EXS polls the context every 64 nodes; by then the high-first
	// descent has already produced an incumbent.
	p.Ctx = newCountdownCtx(0)
	res, err := EXS(p)
	if err != nil {
		t.Fatalf("canceled EXS with an incumbent errored: %v", err)
	}
	if res.Degraded != DegradedEXS {
		t.Fatalf("truncated EXS not tagged: degraded=%q", res.Degraded)
	}
	if !res.Feasible || res.Throughput <= 0 || res.Schedule == nil {
		t.Fatalf("degraded EXS incumbent is unusable: feasible=%v tpt=%v", res.Feasible, res.Throughput)
	}

	// The incumbent must never beat the true optimum.
	p.Ctx = nil
	full, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > full.Throughput+1e-12 {
		t.Fatalf("degraded incumbent %v beats the proven optimum %v", res.Throughput, full.Throughput)
	}
}

// A cancel must land within one evaluation's worth of work inside the
// EXS inner loop — not after a whole subtree unwinds. The test
// pins the latency: on a search space that takes far longer than the
// bound to exhaust, cancellation must return within a small fraction of
// that.
func TestEXSCancelLatency(t *testing.T) {
	md, err := thermal.Default(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Model: md, Levels: power.FullRange(), TmaxC: 80,
		Overhead: power.DefaultOverhead()}

	ctx, cancel := context.WithCancel(context.Background())
	p.Ctx = ctx
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := EXS(p)
		done <- outcome{res, err}
	}()

	time.Sleep(30 * time.Millisecond)
	cancel()
	canceledAt := time.Now()

	const latencyBound = 5 * time.Second // generous vs the 64-eval poll stride; the full 16^9 tree would take far longer
	select {
	case out := <-done:
		if lat := time.Since(canceledAt); lat > latencyBound {
			t.Fatalf("cancel took %s to land", lat)
		}
		switch {
		case out.err != nil:
			if !errors.Is(out.err, ErrDeadline) {
				t.Fatalf("canceled EXS error %v is not a typed ErrDeadline", out.err)
			}
		case out.res.Degraded == DegradedEXS:
			if !out.res.Feasible || out.res.Throughput <= 0 {
				t.Fatalf("degraded incumbent unusable: %+v", out.res)
			}
		case out.res.Degraded == DegradedNone:
			// The machine finished the search before the cancel landed —
			// nothing to pin, but the result must be intact.
			if !out.res.Feasible {
				t.Fatalf("complete EXS result infeasible: %+v", out.res)
			}
		default:
			t.Fatalf("unexpected degradation tag %q", out.res.Degraded)
		}
	case <-time.After(latencyBound + 25*time.Second):
		t.Fatal("EXS never returned after cancel")
	}
}

// The safe floor is the chain's terminal guarantee: it must produce a
// feasible constant plan with zero regard for the context, or refuse
// with the typed ErrInfeasible — never return garbage.
func TestSafeFloor(t *testing.T) {
	p := anytimeProblem(t)
	// Even an already-expired deadline must not stop the floor.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx

	res, err := SafeFloor(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != DegradedFallback {
		t.Fatalf("floor not tagged as fallback: %q", res.Degraded)
	}
	if res.Name != "LNS" {
		t.Fatalf("floor must keep the LNS method name for the verifier, got %q", res.Name)
	}
	if !res.Feasible || res.Throughput <= 0 || res.M != 1 {
		t.Fatalf("floor degenerate: feasible=%v tpt=%v m=%d", res.Feasible, res.Throughput, res.M)
	}
	if res.PeakRise > p.Model.Rise(p.TmaxC)+feasTol {
		t.Fatalf("floor peak %.4f exceeds the budget %.4f", res.PeakRise, p.Model.Rise(p.TmaxC))
	}
}

// Infeasible platforms produce the typed refusal, never a plan.
func TestSafeFloorInfeasibleRefusals(t *testing.T) {
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	ambient := md.Absolute(0)
	cases := []struct {
		name string
		p    Problem
	}{
		{"tmax at ambient: all modes too hot", Problem{
			Model: md, Levels: ls, TmaxC: ambient + 0.01, Overhead: power.DefaultOverhead()}},
		{"no shutdown allowed and no headroom", Problem{
			Model: md, Levels: ls, TmaxC: ambient + 0.01, Overhead: power.DefaultOverhead(), DisallowOff: true}},
	}
	for _, tc := range cases {
		res, err := SafeFloor(tc.p)
		if err == nil {
			t.Errorf("%s: floor returned a plan (tpt %v) instead of refusing", tc.name, res.Throughput)
			continue
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: refusal %v is not typed ErrInfeasible", tc.name, err)
		}
		if res != nil {
			t.Errorf("%s: refusal still carried a result", tc.name)
		}
	}
}
