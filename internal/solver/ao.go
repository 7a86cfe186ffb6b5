package solver

import (
	"fmt"
	"math"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
)

// coreSpec is the per-core two-neighboring-mode decomposition used by AO:
// the core runs Low for (1−RH)·cycle and High for RH·cycle (eq. (11)).
// A core whose ideal voltage coincides with a level has Low == High.
type coreSpec struct {
	Low, High power.Mode
	RH        float64
}

// oscillating reports whether the core actually switches modes.
func (c coreSpec) oscillating() bool {
	return c.High.Voltage > c.Low.Voltage && c.RH > 0 && c.RH < 1
}

// speed returns the core's nominal (useful-work) speed.
func (c coreSpec) speed() float64 {
	return (1-c.RH)*c.Low.Speed() + c.RH*c.High.Speed()
}

// neighborSpecs maps ideal continuous voltages to two-neighboring-mode
// specs per Theorem 4 and eq. (11). When allowOff is set (the paper's
// system model permits inactive cores), an ideal voltage below the lowest
// level oscillates between off and that level; otherwise the core is
// pinned to the lowest level constantly.
func neighborSpecs(levels *power.LevelSet, volts []float64, allowOff bool) []coreSpec {
	specs := make([]coreSpec, len(volts))
	for i, v := range volts {
		if v <= 0 {
			specs[i] = coreSpec{Low: power.ModeOff, High: power.ModeOff}
			continue
		}
		if v < levels.Min() && allowOff {
			// The core's neighboring modes are "off" and the lowest
			// level. Start optimistically at the constant lowest level
			// (RH = 1): the ideal-pinned voltage assumes EVERY core sits
			// exactly at Tmax, which underestimates what a discrete
			// assignment can sustain when its neighbors run cooler than
			// Tmax. The TPT reduction then cuts RH toward shutdown only
			// as far as the verified peak requires.
			specs[i] = coreSpec{
				Low:  power.ModeOff,
				High: power.NewMode(levels.Min()),
				RH:   1,
			}
			continue
		}
		lo, hi := levels.Neighbors(v)
		if hi <= lo {
			specs[i] = coreSpec{Low: power.NewMode(lo), High: power.NewMode(lo)}
			continue
		}
		rH := (v - lo) / (hi - lo)
		if rH < 1e-12 {
			rH = 0
		}
		if rH > 1-1e-12 {
			rH = 1
		}
		specs[i] = coreSpec{Low: power.NewMode(lo), High: power.NewMode(hi), RH: rH}
	}
	return specs
}

// buildCycleKind selects which of the two views of one oscillation cycle
// buildCycle constructs.
type buildCycleKind int

const (
	// cycleEmit is the schedule the platform driver programs: high
	// intervals extended by 2δ_i per cycle so the useful work survives
	// the two transition stalls (§V).
	cycleEmit buildCycleKind = iota
	// cycleThermal is the peak-evaluation view: cycleEmit plus one extra
	// τ of high-voltage time. Executing cycleEmit turns the first τ of
	// the low interval into a stall burning at the high voltage (the rail
	// settles from v_H — see internal/actuator); that executed timeline
	// is EXACTLY a time-rotation of cycleThermal, and stable-status peaks
	// are rotation-invariant, so evaluating cycleThermal certifies the
	// executed schedule. The paper's accounting omits this window; the
	// actuation experiment exposed the ~0.3 K gap.
	cycleThermal
)

// buildCycle constructs one oscillation cycle of length tc in the
// requested view. When the overhead extension no longer fits in the cycle
// (m beyond the core's bound, or a near-1 high ratio), the core degrades
// to a constant high-mode segment — thermally conservative, and the TPT
// adjustment phase will cool it back into the oscillating regime. The
// degradation decision uses the thermal view so both views stay
// structurally consistent.
func buildCycle(tc float64, specs []coreSpec, o power.TransitionOverhead, kind buildCycleKind) (*schedule.Schedule, error) {
	tms := make([]schedule.TwoModeSpec, len(specs))
	fillTwoModeSpecs(tms, specs, o, tc, kind)
	return schedule.TwoMode(tc, tms)
}

// fillTwoModeSpecs writes buildCycle's per-core two-mode decomposition
// into tms without constructing a Schedule — the arena evaluation path
// feeds these directly to sim.EvalArena.SetTwoMode.
func fillTwoModeSpecs(tms []schedule.TwoModeSpec, specs []coreSpec, o power.TransitionOverhead, tc float64, kind buildCycleKind) {
	for i, c := range specs {
		eff := c.RH
		if c.oscillating() && o.Tau > 0 {
			effThermal := c.RH + (2*o.Delta(c.High.Voltage, c.Low.Voltage)+o.Tau)/tc
			if effThermal >= 1 || (1-effThermal)*tc < 2*o.Tau {
				eff = 1 // overhead does not fit: run constant high
			} else if kind == cycleThermal {
				eff = effThermal
			} else {
				eff = c.RH + 2*o.Delta(c.High.Voltage, c.Low.Voltage)/tc
			}
		}
		tms[i] = schedule.TwoModeSpec{Low: c.Low, High: c.High, HighRatio: eff}
	}
}

// shiftedCycle is buildCycle with core i's phase shifted by offs[i] (nil
// offs: the aligned cycle) — PCO's interleaved schedule in either view.
func shiftedCycle(tc float64, specs []coreSpec, offs []float64, o power.TransitionOverhead, kind buildCycleKind) (*schedule.Schedule, error) {
	cyc, err := buildCycle(tc, specs, o, kind)
	if err != nil {
		return nil, err
	}
	for i, off := range offs {
		if off != 0 {
			cyc = cyc.Shift(i, off)
		}
	}
	return cyc, nil
}

// nominalThroughput is the chip-wide useful throughput of the specs
// (excluding overhead padding, which preserves work by construction).
func nominalThroughput(specs []coreSpec) float64 {
	var s float64
	for _, c := range specs {
		s += c.speed()
	}
	return s / float64(len(specs))
}

// maxAdjustIter caps the TPT/refill adjustment budget regardless of the
// configured quantum: each iteration moves at least one core by one
// ratio step, so a budget past cores × ⌈1/dr⌉ is unreachable, and a
// quantum tiny enough to want more than this cap would stall the search
// long before converging.
const maxAdjustIter = 1 << 22

// adjustmentBudget bounds the number of ratio-adjustment iterations for
// n cores at quantum dr. The arithmetic stays in float space until the
// clamp: with a subnormal (or accidentally zero/NaN) dr the old
// `n*int(math.Ceil(1/dr))+10` overflowed int and could go negative,
// silently skipping the adjustment loops entirely.
func adjustmentBudget(n int, dr float64) (int, error) {
	if math.IsNaN(dr) || dr <= 0 {
		return 0, fmt.Errorf("solver: adjustment quantum %v is not positive", dr)
	}
	iters := float64(n) * math.Ceil(1/dr)
	if iters >= maxAdjustIter {
		return maxAdjustIter, nil
	}
	return int(iters) + 10, nil
}

// aoState carries the internals of an AO run so PCO can continue from it.
type aoState struct {
	specs []coreSpec
	m     int
	tc    float64
	cache *sim.PeriodCache
	peak  float64
	hot   int
	evals int64
	// degraded, when set, marks this state as a deadline-truncated
	// best-so-far; mEvaluated records how many m candidates the m-search
	// managed to evaluate.
	degraded   DegradedReason
	mEvaluated int
}

// degrade tags the state with the FIRST truncation reason observed — the
// earliest phase to hit the deadline is the most informative one.
func (st *aoState) degrade(r DegradedReason) {
	if st.degraded == DegradedNone {
		st.degraded = r
	}
}

// AO runs Algorithm 2 and returns the aligned m-oscillating schedule.
func AO(p Problem) (*Result, error) { return solveAO(p, newArenaEval) }

// solveAO is AO with the solve's evaluator built by newEval. The
// differential tests pass the classic reference evaluator.
func solveAO(p Problem, newEval newEvalFunc) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	start := now()
	eng := p.engine()
	ev := newEval(p, eng, p.Model.NumCores())
	defer ev.release()
	st, err := runAO(p, eng, ev)
	if err != nil {
		return nil, err
	}
	cyc, err := buildCycle(st.tc, st.specs, p.Overhead, cycleEmit)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:       "AO",
		Schedule:   cyc,
		Throughput: nominalThroughput(st.specs),
		PeakRise:   st.peak,
		M:          st.m,
		Feasible:   st.peak <= p.tmaxRise()+feasTol,
		Elapsed:    since(start),
		Evals:      st.evals,
		Degraded:   st.degraded,
		MEvaluated: st.mEvaluated,
	}, nil
}

// runAO executes Algorithm 2 from two starting points and keeps the
// better feasible outcome:
//
//  1. the paper's ideal-pinned start (continuous voltages with every
//     core's T∞ at Tmax, split into neighboring modes by eq. (11));
//  2. an EXS-anchored start: the optimal constant discrete assignment,
//     with each core paired to the next level up for headroom refill.
//
// Seed 2 exists because the ideal-pinned start is not always the discrete
// optimum (EXPERIMENTS.md, finding 3): when some ideal voltages fall
// below the lowest level (many cores, tight budgets, 3D stacks), the
// greedy TPT reduction from seed 1 can converge to an allocation worse
// than the best constant assignment. Oscillating on top of that constant
// assignment — exactly the paper's §III motivation narrative — restores
// AO ≥ EXS.
//
// eng is one evaluation engine per solve — or the caller-shared one from
// Problem.Engine: both seeds, the m-search, the TPT loops and PCO's
// continuation share its propagator cache and period operator pool (the
// two seeds scan the same tc = tp/m grid), and ev, the solve's one
// evaluator, evaluates through it. A server handling concurrent Maximize
// calls passes one engine per platform so all in-flight solves share a
// single pool.
func runAO(p Problem, eng *sim.Engine, ev evaluator) (*aoState, error) {
	md := p.Model
	tmax := p.tmaxRise()
	volts, err := IdealVoltages(md, tmax, p.Levels.Max())
	if err != nil {
		return nil, err
	}
	idealSpecs := neighborSpecs(p.Levels, volts, !p.DisallowOff)
	if md.SparsePath() {
		// At scale the ideal-pinned start can be infeasible by a distance
		// the one-quantum TPT loop cannot cover; back it off to a
		// near-feasible scaled seed first (see scale.go).
		idealSpecs, err = sparseFeasibleSeed(p, eng, volts)
		if err != nil {
			return nil, err
		}
	}
	best, err := optimizeSpecs(p, ev, idealSpecs, 0)
	if err != nil {
		return nil, err
	}

	// Seed 2 is only worth running when seed 1 finished intact — a
	// deadline that already truncated the first optimization leaves no
	// budget for another full pass. The sparse backend skips it outright:
	// at hundreds of cores the EXS branch-and-bound plus a second full
	// optimization pass would dominate the whole deadline budget for a
	// start the scale-policy pruning handles from seed 1 anyway.
	if best.degraded == DegradedNone && !md.SparsePath() {
		exsSpecs, exsEvals, ok := exsSeedSpecs(p)
		if ok {
			alt, altErr := optimizeSpecs(p, ev, exsSpecs, best.m)
			if altErr == nil {
				alt.evals += exsEvals
				tainted := alt.degraded != DegradedNone
				best = betterState(p, best, alt)
				if tainted {
					// The alt branch was itself truncated: whichever state
					// won, the two-seed comparison is timing-dependent.
					best.degrade(DegradedAltSeed)
				}
			}
		}
		// Any deadline observed here means the alt path may have been
		// silently skipped or cut short (EXS truncated, the alt optimize
		// aborted, or a cancel between the seeds). The plan itself is
		// still thermally valid — tag it Degraded instead of refusing, and
		// rely on callers keeping degraded plans out of determinism-keyed
		// caches.
		if err := p.ctxErr(); err != nil {
			best.degrade(DegradedAltSeed)
		}
	}
	return best, nil
}

// betterState prefers feasible states, then higher nominal throughput.
func betterState(p Problem, a, b *aoState) *aoState {
	tmax := p.tmaxRise()
	aOK := a.peak <= tmax+feasTol
	bOK := b.peak <= tmax+feasTol
	switch {
	case aOK && !bOK:
		b.evals += a.evals // keep the full accounting on the winner
		a.evals = b.evals
		return a
	case bOK && !aOK:
		b.evals += a.evals
		return b
	case nominalThroughput(b.specs) > nominalThroughput(a.specs):
		b.evals += a.evals
		return b
	default:
		a.evals += b.evals
		return a
	}
}

// exsSeedSpecs converts the optimal constant assignment into oscillation
// specs anchored at each core's EXS level, paired with the next level up.
// The dual-price prune keeps the search cheap on the dense grids that
// reach it; the sparse path skips this seed.
func exsSeedSpecs(p Problem) ([]coreSpec, int64, bool) {
	res, err := EXS(p)
	if err != nil || !res.Feasible || res.Schedule == nil || res.Degraded != DegradedNone {
		if res != nil {
			return nil, res.Evals, false
		}
		return nil, 0, false
	}
	volts := p.Levels.Voltages()
	specs := make([]coreSpec, p.Model.NumCores())
	for i := range specs {
		m := res.Schedule.ModeAt(i, 0)
		switch {
		case m.IsOff():
			specs[i] = coreSpec{Low: power.ModeOff, High: power.NewMode(p.Levels.Min()), RH: 0}
		default:
			// Pair with the next level up (or stay constant at the top).
			next := m.Voltage
			for _, v := range volts {
				if v > m.Voltage+1e-12 {
					next = v
					break
				}
			}
			specs[i] = coreSpec{Low: m, High: power.NewMode(next), RH: 0}
		}
	}
	return specs, res.Evals, true
}

// optimizeSpecs runs phases 2 and 3 of Algorithm 2 on the given starting
// specs: the m search (skipped when forceM > 0) followed by TPT-guided
// ratio reduction, headroom refill, and dense verification. The candidate
// scans — m values in phase 2, per-core ratio trials in phase 3 — fan out
// across p.Workers goroutines sharing the evaluator's engine; reductions
// scan candidates in sequential order, so every worker count yields the
// same plan bit for bit.
func optimizeSpecs(p Problem, ev evaluator, specs []coreSpec, forceM int) (*aoState, error) {
	tmax := p.tmaxRise()
	tp := p.BasePeriod
	workers := p.workers()
	// ev serves the whole solve (both seeds, then PCO), so this pass's
	// evaluations are a difference of its running count.
	evals0 := ev.count()
	specs = append([]coreSpec(nil), specs...)

	// Scale policy (nil on the dense backend): on large sparse platforms
	// the per-iteration trial scans evaluate only the top-ranked candidate
	// cores instead of all of them (see scale.go). allJ is the identity
	// candidate list the dense path scans — same indices, same order, same
	// arithmetic as the historic exhaustive loop.
	pol := newScalePolicy(p.Model)
	allJ := make([]int, len(specs))
	for j := range allJ {
		allJ[j] = j
	}

	// Chip-wide oscillation bound M = min_i M_i (§V).
	m := p.MaxM
	anyOsc := false
	for _, c := range specs {
		if !c.oscillating() {
			continue
		}
		anyOsc = true
		tL := (1 - c.RH) * tp
		if mi := p.Overhead.MaxM(tL, c.High.Voltage, c.Low.Voltage); mi < m {
			m = mi
		}
	}
	if !anyOsc {
		m = 1
	}
	if forceM > 0 {
		m = forceM
	}

	// Phase 2: scan m ∈ [1, M] for the peak-minimizing oscillation count
	// (with overhead, the peak is no longer monotone in m). Candidates fan
	// out across the worker pool; the reduction keeps the smallest m with
	// the strictly lowest peak, exactly the sequential scan's choice.
	startM := 1
	if forceM > 0 {
		startM = forceM
	}
	ms, err := ev.searchM(specs, startM, m)
	if err != nil {
		return nil, err
	}
	if ms.m == 0 {
		return nil, fmt.Errorf("solver: no feasible oscillation cycle for period %v", tp)
	}

	// Phase 3: TPT-guided ratio adjustment until the constraint holds.
	tc := tp / float64(ms.m)
	cache := ms.cache
	tUnit := tUnitFrac * tc
	dr := tUnit / tc // ratio change per adjustment quantum
	canCool := func(j int) bool { return canStep(specs[j], -dr) }
	canRaise := func(j int) bool { return canStep(specs[j], dr) }

	st := &aoState{specs: specs, m: ms.m, tc: tc, cache: cache,
		evals: ms.evals, mEvaluated: ms.evaluated}
	if ms.truncated {
		st.degrade(DegradedMSearch)
	}
	// The stable end-of-cycle core temperature rises: by Theorem 1 their
	// maximum is the schedule's peak temperature.
	temps := make([]float64, len(specs))
	if err := ev.endTemps(0, temps, specs, tc, cache); err != nil {
		return nil, err
	}
	peak, hot := mat.VecMax(temps)
	maxIter, err := adjustmentBudget(len(specs), dr)
	if err != nil {
		return nil, err
	}
	trialTemps := make([][]float64, len(specs))
	trialBuf := make([][]float64, len(specs))
	for j := range trialBuf {
		trialBuf[j] = make([]float64, len(specs))
	}
	// endTrial scores one TPT or refill trial; a failed evaluation leaves
	// trialTemps[j] nil, skipped like the sequential continue-on-error.
	endTrial := func(w, j int, trial []coreSpec) {
		if ev.endTemps(w, trialBuf[j], trial, tc, cache) == nil {
			trialTemps[j] = trialBuf[j]
		}
	}
	for iter := 0; peak > tmax+feasTol && iter < maxIter; iter++ {
		if err := p.ctxErr(); err != nil {
			// Anytime: keep the best-so-far specs instead of erroring. The
			// dense verification below still re-evaluates the final specs,
			// so the claimed peak stays exact even for the truncated plan.
			st.degrade(DegradedAdjust)
			break
		}
		// Algorithm 2 lines 15–20: pick the core whose slowdown most
		// effectively cools the hottest core per unit of throughput lost.
		// The per-core trial evaluations are independent; evaluate them
		// across the worker pool and reduce in candidate order. The dense
		// path trials every core; the sparse scale policy trials only the
		// top coolers ranked against the current hot node.
		cand := allJ
		if pol != nil {
			cand = pol.coolers(hot, specs, canCool)
		}
		clear(trialTemps)
		trialScan(ev, workers, specs, cand, -dr, endTrial)
		bestJ, bestTPT := -1, math.Inf(-1)
		var bestTemps []float64
		for _, j := range cand {
			if trialTemps[j] == nil {
				continue
			}
			c := specs[j]
			deltaT := temps[hot] - trialTemps[j][hot]
			tpt := deltaT / ((c.High.Voltage - c.Low.Voltage) * tUnit)
			if tpt > bestTPT {
				bestJ, bestTPT = j, tpt
				bestTemps = trialTemps[j]
			}
		}
		if bestJ == -1 {
			break // nothing left to slow down
		}
		specs[bestJ].RH = steppedRH(specs[bestJ], -dr)
		copy(temps, bestTemps) // trial rows are reused next iteration
		peak, hot = mat.VecMax(temps)
	}

	// Headroom refill — the dual of the TPT reduction. The ideal-pinned
	// starting point maximizes throughput only when every core's steady
	// temperature can actually sit at Tmax; with coarse level sets the
	// discrete schedule may converge strictly below the budget (e.g. the
	// 9-core platform at Tmax = 55 °C, where the uniform lowest level is
	// feasible outright). Greedily raise the high-mode ratio with the
	// best throughput-gain-per-Kelvin while the peak stays under the
	// budget minus a small guard band (absorbing the constant-core
	// overshoot documented on sim.Stable.PeakEndOfPeriod).
	const refillGuard = 0.05
	refillMax := maxIter
	if pol != nil {
		// Each sparse refill iteration costs sparseTrialCap exact stable
		// evaluations; bound the polish so it cannot eat the deadline.
		refillMax = sparseRefillIters
	}
	for iter := 0; peak < tmax-refillGuard && iter < refillMax; iter++ {
		if err := p.ctxErr(); err != nil {
			st.degrade(DegradedRefill)
			break
		}
		cand := allJ
		if pol != nil {
			cand = pol.refillers(hot, specs, canRaise)
		}
		clear(trialTemps)
		trialScan(ev, workers, specs, cand, dr, endTrial)
		bestJ, bestScore := -1, 0.0
		var bestTemps []float64
		for _, j := range cand {
			c := specs[j]
			if trialTemps[j] == nil {
				continue
			}
			trialPeak, _ := mat.VecMax(trialTemps[j])
			if trialPeak > tmax-refillGuard+feasTol {
				continue
			}
			gain := (c.High.Voltage - c.Low.Voltage) * (steppedRH(c, dr) - c.RH)
			score := gain / math.Max(trialPeak-peak, 1e-9)
			if score > bestScore {
				bestJ, bestScore = j, score
				bestTemps = trialTemps[j]
			}
		}
		if bestJ == -1 {
			break
		}
		specs[bestJ].RH = steppedRH(specs[bestJ], dr)
		copy(temps, bestTemps)
		peak, hot = mat.VecMax(temps)
	}

	// Final verification with a dense peak search. The end-of-cycle value
	// used above is Theorem 1's peak, which is exact only when every core
	// strictly steps up; a constant-mode core can overshoot it slightly
	// just after the cycle wrap (see sim.Stable.PeakEndOfPeriod). If the
	// densely-verified peak still violates the budget, keep adjusting
	// under the dense metric.
	dense, err := ev.densePeak(0, specs, nil, tc, cache)
	if err != nil {
		return nil, err
	}
	densePeaks := make([]float64, len(specs))
	denseTrial := func(w, j int, trial []coreSpec) {
		if dp, err := ev.densePeak(w, trial, nil, tc, cache); err == nil {
			densePeaks[j] = dp
		}
	}
	for iter := 0; dense > tmax+feasTol && iter < maxIter; iter++ {
		if err := p.ctxErr(); err != nil {
			st.degrade(DegradedDense)
			break
		}
		cand := allJ
		if pol != nil {
			cand = pol.coolers(hot, specs, canCool)
		}
		for j := range densePeaks {
			densePeaks[j] = math.Inf(1)
		}
		trialScan(ev, workers, specs, cand, -dr, denseTrial)
		bestJ, bestPeak := -1, math.Inf(1)
		for _, j := range cand {
			if dp := densePeaks[j]; dp < bestPeak {
				bestJ, bestPeak = j, dp
			}
		}
		if bestJ == -1 {
			break
		}
		specs[bestJ].RH = steppedRH(specs[bestJ], -dr)
		dense = bestPeak
	}

	st.specs = specs
	st.peak = dense
	st.hot = hot
	st.evals += ev.count() - evals0
	return st, nil
}

// trialScan runs one trial per candidate core across the worker pool:
// eval(w, j, trial) gets the specs with core j's high ratio moved by step
// (−dr cools, +dr raises) in worker w's scratch. Cores that cannot move
// that way are skipped.
func trialScan(ev evaluator, workers int, specs []coreSpec, cand []int, step float64, eval func(w, j int, trial []coreSpec)) {
	parForW(workers, len(cand), func(w, k int) {
		j := cand[k]
		if canStep(specs[j], step) {
			eval(w, j, ev.withRH(w, specs, j, steppedRH(specs[j], step)))
		}
	})
}

// canStep reports whether c's high ratio can move by step: the core has
// two distinct modes and the ratio is not yet at the bound step moves
// toward.
func canStep(c coreSpec, step float64) bool {
	return c.High.Voltage > c.Low.Voltage && (step < 0 && c.RH > 0 || step > 0 && c.RH < 1)
}

// steppedRH is c's high ratio moved by step and clamped to [0, 1].
func steppedRH(c coreSpec, step float64) float64 {
	return math.Min(1, math.Max(0, c.RH+step))
}
