// Package verify is the independent plan-verification oracle: a slow,
// obviously-correct re-derivation of everything the fast evaluation
// engine claims about a plan. It shares no caches, no eigendecomposition,
// and no Theorem-1 shortcut with internal/sim — every operator is built
// from the dense system matrices with the Padé matrix exponential, the
// stable orbit is solved as the fixed point of the full period map, the
// peak is confirmed by an independent fixed-step RK4 integration, and the
// paper's structural invariants (Definition 1 step-up ordering, Theorem 1
// peak placement, work preservation across the m-split, the overhead
// bound m ≤ M) are audited symbolically on the emitted timeline.
//
// The oracle is deliberately O(samples · dim³) per plan — orders of
// magnitude slower than sim.Engine — and is meant for differential
// sweeps (cmd/thermosc-verify), sampled post-solve audits (the server's
// verify_pass/verify_fail counters), and CI fault-injection gates, not
// for the solver hot path.
package verify

import (
	"fmt"
	"math"
	"strings"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

// Params are the claims a plan makes, to be checked against the oracle's
// own derivation. Method gates the structural invariants: the two-mode
// checks (step-up, work recovery, overhead bound) only apply to the
// solvers that emit two-mode timelines; an empty Method limits the audit
// to the generic thermal invariants.
type Params struct {
	Method string // "AO", "PCO", "EXS", "LNS", "Ideal" (case-insensitive); "" = generic
	// M is the claimed oscillation count; the plan schedule is one cycle,
	// so its period must equal BasePeriod/M.
	M int
	// TmaxRise is the peak threshold as a rise above ambient (K).
	TmaxRise float64
	// BasePeriod is the m=1 period t_p in seconds; 0 skips the m-split
	// and overhead-bound checks.
	BasePeriod float64
	Overhead   power.TransitionOverhead
	PeakRise   float64 // claimed stable-status peak rise (K)
	Throughput float64 // claimed chip-wide useful throughput (eq. (5))
	Feasible   bool    // claimed feasibility verdict
}

// Options are the oracle tolerances. The defaults are documented in
// docs/VERIFY.md; zero values select them.
type Options struct {
	// Samples is the per-interval dense-sampling resolution used for the
	// differential against the claimed peak. Default 24 — the solver's
	// peakSamples constant, so the comparison isolates arithmetic (Padé
	// exponential vs eigenbasis), not grid placement.
	Samples int
	// FineSamples is the denser grid used for the Tmax and Theorem-1
	// audits (default 96).
	FineSamples int
	// RelTol bounds |oracle peak − claimed peak| relative to the claimed
	// rise (default 1e-6).
	RelTol float64
	// PeakTolK is the absolute slack (K) allowed on the Tmax audit,
	// absorbing feasTol and the crest the solver's coarser grid can miss
	// between samples (default 5e-3 K).
	PeakTolK float64
	// Theorem1TolK bounds the dense peak's excess over the period-end
	// value when every core strictly steps up (default 1e-6 K);
	// ConstCoreTolK applies instead when some core holds a constant mode
	// (the documented post-wrap overshoot, default 0.05 K).
	Theorem1TolK  float64
	ConstCoreTolK float64
	// WorkRelTol bounds the recovered-vs-claimed throughput disagreement
	// (default 1e-9 relative).
	WorkRelTol float64
	// PeriodRelTol bounds |m·tc − t_p| relative to t_p (default 1e-9).
	PeriodRelTol float64
	// RK4TolK bounds the fixed-step RK4 cross-check against the expm
	// dense peak and the orbit's periodicity residual (default 1e-3 K).
	RK4TolK float64
	// MaxRK4Steps caps the RK4 step count per period (default 1<<20).
	MaxRK4Steps int
}

func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 24
	}
	if o.FineSamples == 0 {
		o.FineSamples = 96
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-6
	}
	if o.PeakTolK == 0 {
		o.PeakTolK = 5e-3
	}
	if o.Theorem1TolK == 0 {
		o.Theorem1TolK = 1e-6
	}
	if o.ConstCoreTolK == 0 {
		o.ConstCoreTolK = 0.05
	}
	if o.WorkRelTol == 0 {
		o.WorkRelTol = 1e-9
	}
	if o.PeriodRelTol == 0 {
		o.PeriodRelTol = 1e-9
	}
	if o.RK4TolK == 0 {
		o.RK4TolK = 1e-3
	}
	if o.MaxRK4Steps == 0 {
		o.MaxRK4Steps = 1 << 20
	}
	return o
}

// Violation is one failed invariant.
type Violation struct {
	Invariant string // "tmax", "step-up", "theorem-1", "work", "m-split", "m-bound", "peak-mismatch", "structure", "feasible-flag", "oracle"
	Detail    string
}

// Report is the oracle's verdict on one plan.
type Report struct {
	Method string
	M      int
	// PeakEmitRise is the stable dense peak of the bare emitted schedule.
	PeakEmitRise float64
	// PeakExecRise is the stable dense peak of the executed timeline
	// (emitted schedule + τ-long high-voltage stall windows) on the
	// solver-matching grid — the value compared against the claim.
	PeakExecRise float64
	// PeakFineRise is the same peak on the FineSamples grid (Tmax audit).
	PeakFineRise float64
	// PeakEndRise is the stable rise at the period boundary — Theorem 1's
	// peak for step-up schedules.
	PeakEndRise float64
	// RK4PeakRise is the fixed-step RK4 peak over one stable period.
	RK4PeakRise float64
	RK4Steps    int
	// ThroughputRecovered is the useful throughput reconstructed from the
	// emitted interval lengths (inverting the 2δ work-preservation pad).
	ThroughputRecovered float64
	Violations          []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) addf(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// String renders the divergence report (docs/VERIFY.md explains how to
// read one).
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verify %s m=%d: peak exec=%.9g fine=%.9g end=%.9g rk4=%.9g emit=%.9g thr=%.9g",
		r.Method, r.M, r.PeakExecRise, r.PeakFineRise, r.PeakEndRise, r.RK4PeakRise, r.PeakEmitRise, r.ThroughputRecovered)
	if r.OK() {
		sb.WriteString(" OK")
		return sb.String()
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "\n  FAIL [%s] %s", v.Invariant, v.Detail)
	}
	return sb.String()
}

// twoModeMethods are the solvers whose plans must be two-mode step-up
// timelines with work-preserving overhead padding. PCO timelines are
// two-mode but phase-rotated, so the step-up check is waived for it.
func twoModeMethod(m string) (known, stepUp bool) {
	switch strings.ToUpper(m) {
	case "AO", "EXS", "LNS", "IDEAL":
		return true, true
	case "PCO":
		return true, false
	default:
		return false, false
	}
}

// Check audits sched against the claims in pr from first principles and
// returns the full report. An error means the oracle itself could not run
// (nil model, unsolvable orbit); a plan failing its invariants is NOT an
// error — it is a report with violations.
func Check(md *thermal.Model, sched *schedule.Schedule, pr Params, opt Options) (*Report, error) {
	if md == nil || sched == nil {
		return nil, fmt.Errorf("verify: nil model or schedule")
	}
	if sched.NumCores() != md.NumCores() {
		return nil, fmt.Errorf("verify: schedule has %d cores, model %d", sched.NumCores(), md.NumCores())
	}
	opt = opt.withDefaults()
	r := &Report{Method: pr.Method, M: pr.M}
	known, wantStepUp := twoModeMethod(pr.Method)

	orc, err := newOracle(md)
	if err != nil {
		return nil, err
	}

	// Executed timeline: the emitted plan plus the τ-long high-voltage
	// stall each high→low transition produces. The solvers certify this
	// view (see solver.cycleThermal); structural failures here mean the
	// plan is not a recognizable two-mode timeline.
	exec := sched
	if known && pr.Overhead.Tau > 0 {
		ev, sErr := ExecView(sched, pr.Overhead)
		if sErr != nil {
			r.addf("structure", "executed-view reconstruction: %v", sErr)
		} else {
			exec = ev
		}
	}

	// Independent stable orbit + dense peaks of the executed timeline.
	ob, err := orc.solveOrbit(exec)
	if err != nil {
		return nil, err
	}
	r.PeakEndRise, _ = mat.VecMax(md.CoreTemps(ob.start))
	r.PeakExecRise, err = orc.densePeak(ob, opt.Samples, r)
	if err != nil {
		return nil, err
	}
	r.PeakFineRise, err = orc.densePeak(ob, opt.FineSamples, nil)
	if err != nil {
		return nil, err
	}

	// The bare emitted schedule's peak, for the report (the executed view
	// is the certified one; the emit peak shows what the pad costs).
	if exec != sched {
		obEmit, err := orc.solveOrbit(sched)
		if err != nil {
			return nil, err
		}
		r.PeakEmitRise, err = orc.densePeak(obEmit, opt.Samples, nil)
		if err != nil {
			return nil, err
		}
	} else {
		r.PeakEmitRise = r.PeakExecRise
	}

	// RK4 cross-check: integrate the stable orbit with a method that
	// shares nothing with the closed-form path, and demand the same peak
	// and a closed orbit.
	rk4Peak, endResid, steps := orc.rk4Peak(ob, opt.MaxRK4Steps)
	r.RK4PeakRise, r.RK4Steps = rk4Peak, steps
	if d := math.Abs(rk4Peak - r.PeakFineRise); d > opt.RK4TolK {
		r.addf("oracle", "RK4 peak %.9g disagrees with expm peak %.9g by %.3g K (> %.3g)", rk4Peak, r.PeakFineRise, d, opt.RK4TolK)
	}
	if endResid > opt.RK4TolK {
		r.addf("oracle", "RK4 orbit not closed: periodicity residual %.3g K (> %.3g)", endResid, opt.RK4TolK)
	}

	// Invariant: stable peak respects Tmax whenever the plan claims
	// feasibility — and an infeasible verdict on a comfortably-cool plan
	// is equally wrong.
	if pr.Feasible && r.PeakFineRise > pr.TmaxRise+opt.PeakTolK {
		r.addf("tmax", "claimed feasible but stable peak rise %.6f K exceeds Tmax rise %.6f K by %.3g",
			r.PeakFineRise, pr.TmaxRise, r.PeakFineRise-pr.TmaxRise)
	}
	if !pr.Feasible && r.PeakFineRise < pr.TmaxRise-opt.ConstCoreTolK {
		r.addf("feasible-flag", "claimed infeasible but stable peak rise %.6f K sits %.3g K under Tmax rise %.6f K",
			r.PeakFineRise, pr.TmaxRise-r.PeakFineRise, pr.TmaxRise)
	}

	// Invariant: the claimed peak matches the oracle's (the differential
	// that catches engine arithmetic/caching bugs).
	if pr.PeakRise > 0 {
		rel := math.Abs(r.PeakExecRise-pr.PeakRise) / math.Max(1, math.Abs(pr.PeakRise))
		if rel > opt.RelTol {
			r.addf("peak-mismatch", "claimed peak rise %.12g vs oracle %.12g (rel %.3g > %.3g)",
				pr.PeakRise, r.PeakExecRise, rel, opt.RelTol)
		}
	}

	// Invariant: Definition 1 step-up ordering on the emitted timeline.
	if wantStepUp && !sched.IsStepUp() {
		r.addf("step-up", "emitted schedule violates the step-up ordering (Definition 1): %v", sched)
	}

	// Invariant: Theorem 1 — for a step-up executed timeline the stable
	// peak occurs at the period boundary. Constant-mode cores are allowed
	// the documented post-wrap overshoot.
	if exec.IsStepUp() {
		tol := opt.Theorem1TolK
		for i := 0; i < exec.NumCores(); i++ {
			if len(exec.CoreSegments(i)) < 2 {
				tol = opt.ConstCoreTolK
				break
			}
		}
		if d := r.PeakFineRise - r.PeakEndRise; d > tol {
			r.addf("theorem-1", "dense peak %.9g exceeds the period-end value %.9g by %.3g K (> %.3g)",
				r.PeakFineRise, r.PeakEndRise, d, tol)
		}
	}

	// Structural invariants of the two-mode decomposition: work
	// preservation, the m-split, and the overhead bound.
	if known {
		orc.checkTwoMode(sched, pr, opt, r)
	}
	return r, nil
}

// checkTwoMode recovers each core's high-mode ratio from the emitted
// interval lengths (inverting the 2δ pad of eq. (11) + §V), then audits
// work preservation, the m-split period identity, and m ≤ M.
func (o *oracle) checkTwoMode(sched *schedule.Schedule, pr Params, opt Options, r *Report) {
	tc := sched.Period()
	n := sched.NumCores()
	var speedSum float64
	minM := math.MaxInt32
	structural := false
	for i := 0; i < n; i++ {
		segs := sched.CoreSegments(i)
		lo, hi, nv := voltageSpan(segs)
		switch {
		case nv == 1:
			speedSum += power.NewMode(hi).Speed()
			continue
		case nv > 2:
			r.addf("structure", "core %d has %d distinct voltages; two-mode plans carry at most 2", i, nv)
			structural = true
			continue
		}
		var lH float64
		for _, s := range segs {
			if s.Mode.Voltage == hi {
				lH += s.Length
			}
		}
		rh := lH / tc
		if pr.Overhead.Tau > 0 {
			rh = (lH - 2*pr.Overhead.Delta(hi, lo)) / tc
		}
		if rh < -1e-9 || rh > 1+1e-9 {
			r.addf("structure", "core %d recovered high-ratio %.6g outside [0,1] (lH=%.6g tc=%.6g)", i, rh, lH, tc)
			structural = true
			continue
		}
		rh = math.Min(1, math.Max(0, rh))
		speedSum += (1-rh)*power.NewMode(lo).Speed() + rh*power.NewMode(hi).Speed()
		if pr.Overhead.Tau > 0 && pr.BasePeriod > 0 && hi > lo {
			if mi := pr.Overhead.MaxM((1-rh)*pr.BasePeriod, hi, lo); mi < minM {
				minM = mi
			}
		}
	}
	r.ThroughputRecovered = speedSum / float64(n)

	if !structural && pr.Throughput > 0 {
		rel := math.Abs(r.ThroughputRecovered-pr.Throughput) / math.Max(1e-12, pr.Throughput)
		if rel > opt.WorkRelTol {
			r.addf("work", "claimed throughput %.12g vs recovered %.12g (rel %.3g > %.3g): the m-split or the 2δ pad lost work",
				pr.Throughput, r.ThroughputRecovered, rel, opt.WorkRelTol)
		}
	}
	if pr.BasePeriod > 0 && pr.M >= 1 {
		if d := math.Abs(float64(pr.M)*tc - pr.BasePeriod); d > opt.PeriodRelTol*pr.BasePeriod {
			r.addf("m-split", "m·tc = %d·%.9g = %.9g != base period %.9g (|Δ| %.3g)",
				pr.M, tc, float64(pr.M)*tc, pr.BasePeriod, d)
		}
	}
	if pr.M > minM {
		r.addf("m-bound", "m=%d exceeds the overhead bound M = min_i ⌊t_L/(δ_i+τ)⌋ = %d", pr.M, minM)
	}
	if pr.M < 1 {
		r.addf("m-bound", "m=%d below 1", pr.M)
	}
}

// voltageSpan returns the lowest and highest voltage in segs and the
// number of distinct voltages.
func voltageSpan(segs []schedule.Segment) (lo, hi float64, distinct int) {
	seen := make(map[float64]bool, 2)
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range segs {
		if !seen[s.Mode.Voltage] {
			seen[s.Mode.Voltage] = true
			distinct++
		}
		lo = math.Min(lo, s.Mode.Voltage)
		hi = math.Max(hi, s.Mode.Voltage)
	}
	return lo, hi, distinct
}

// ExecView returns the executed timeline of an emitted two-mode plan:
// switching a core from its high to its low voltage stalls the first τ of
// the low interval at the high voltage while the rail settles (the
// solver's cycleThermal view), so that τ-window moves across each
// oscillating core's cyclic high→low boundary. Constant cores and τ = 0
// leave the schedule unchanged. The result equals the solver's thermal
// view up to a global time-rotation, under which stable-status peaks are
// invariant.
func ExecView(sched *schedule.Schedule, o power.TransitionOverhead) (*schedule.Schedule, error) {
	if o.Tau <= 0 {
		return sched, nil
	}
	cores := make([][]schedule.Segment, sched.NumCores())
	for i := 0; i < sched.NumCores(); i++ {
		segs := sched.CoreSegments(i)
		_, hi, nv := voltageSpan(segs)
		if nv != 2 {
			if nv > 2 {
				return nil, fmt.Errorf("verify: core %d has %d distinct voltages", i, nv)
			}
			cores[i] = segs
			continue
		}
		// Locate the unique cyclic high→low boundary of the two-mode
		// cycle (possibly phase-rotated, so the high run may wrap).
		idx := -1
		for j := range segs {
			next := (j + 1) % len(segs)
			if segs[j].Mode.Voltage == hi && segs[next].Mode.Voltage != hi {
				if idx >= 0 {
					return nil, fmt.Errorf("verify: core %d oscillates more than once per cycle", i)
				}
				idx = j
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("verify: core %d has no high→low boundary", i)
		}
		next := (idx + 1) % len(segs)
		if segs[next].Length <= o.Tau {
			return nil, fmt.Errorf("verify: core %d low interval %.3g s cannot absorb the τ=%.3g s stall", i, segs[next].Length, o.Tau)
		}
		segs[idx].Length += o.Tau
		segs[next].Length -= o.Tau
		cores[i] = segs
	}
	return schedule.New(cores)
}
