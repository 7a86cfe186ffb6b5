package solver

import "math"

// PCO implements phase-conscious oscillation (§VI): it runs AO, then
// shifts each core's oscillation phase to spatially interleave high- and
// low-voltage intervals, and finally refills the freed temperature
// headroom by raising high-mode ratios while the (densely verified) peak
// stays within the threshold.
//
// Shifted schedules are no longer step-up, so PCO verifies peaks by dense
// sampling (peakSamples per state interval) instead of Theorem 1's
// end-of-period shortcut — which is exactly why PCO costs more CPU time
// than AO in Table V. The dense evaluations run through the AO run's
// shared sim.Engine, so the per-interval operators (including the
// fractional sample offsets, which recur across every candidate) are
// computed once; the phase search and the refill trial scan fan out
// across p.Workers goroutines with deterministic reductions — any worker
// count returns the identical plan.
func PCO(p Problem) (*Result, error) { return solvePCO(p, newArenaEval) }

// solvePCO is PCO with the solve's evaluator built by newEval. The
// differential tests pass the classic reference evaluator.
func solvePCO(p Problem, newEval newEvalFunc) (*Result, error) {
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
	tmax := p.tmaxRise()
	workers := p.workers()
	n := len(st.specs)
	offsets := make([]float64, n)
	evals0 := ev.count()

	// densePeak evaluates the stable-status peak of the specs with the
	// given per-core phase offsets.
	densePeak := func(w int, specs []coreSpec, offs []float64) (float64, error) {
		return ev.densePeak(w, specs, offs, st.tc, st.cache)
	}

	// Phase search: greedily, core by core, pick the offset that minimizes
	// the dense peak (offset 0 — the AO alignment — is always a candidate,
	// so the phase search never hurts). Candidate offsets for one core are
	// independent, so they fan out across the worker pool; the winner is
	// chosen deterministically (lowest peak, ties to the smallest offset).
	peaks := make([]float64, pcoPhaseSteps)
	offsW := make([][]float64, workers)
	for w := range offsW {
		offsW[w] = make([]float64, n)
	}
	// Scale policy: on large sparse platforms each dense evaluation costs
	// hundreds of milliseconds, so the phase search visits only the few
	// oscillating cores most strongly coupled to the AO hot node (the
	// cores whose phase shift moves the most heat off the peak), and the
	// refill below is iteration-bounded. nil on the dense backend — small
	// platforms keep the historic exhaustive search bit for bit.
	pol := newScalePolicy(p.Model)
	var phaseMask []bool
	if pol != nil {
		phaseMask = pol.phaseCores(st.hot, st.specs)
	}
	for i := 1; i < n; i++ {
		if err := p.ctxErr(); err != nil {
			// Anytime: keep the offsets chosen so far (0 for the rest — the
			// AO alignment, always valid) and re-verify densely below.
			st.degrade(DegradedPhase)
			break
		}
		if !st.specs[i].oscillating() {
			continue
		}
		if phaseMask != nil && !phaseMask[i] {
			continue
		}
		parForW(workers, pcoPhaseSteps, func(w, k int) {
			offs := offsW[w]
			copy(offs, offsets)
			offs[i] = float64(k) / float64(pcoPhaseSteps) * st.tc
			pk, err := densePeak(w, st.specs, offs)
			if err != nil {
				pk = math.Inf(1)
			}
			peaks[k] = pk
		})
		bestOff, bestPeak := 0.0, math.Inf(1)
		for k, pk := range peaks {
			if pk < bestPeak {
				bestPeak = pk
				bestOff = float64(k) / float64(pcoPhaseSteps) * st.tc
			}
		}
		offsets[i] = bestOff
	}
	peak, err := densePeak(0, st.specs, offsets)
	if err != nil {
		return nil, err
	}

	// Headroom refill: raise the most valuable high-ratio while the peak
	// stays under the threshold. Per-core trials are independent; the
	// reduction keeps the sequential tie-break (highest gain, then lowest
	// resulting peak, then the smallest core index). A trial that fails or
	// breaks the threshold leaves its peak at +Inf.
	dr := tUnitFrac
	specs := append([]coreSpec(nil), st.specs...)
	trialPeaks := make([]float64, n)
	refillTrial := func(w, j int, trial []coreSpec) {
		if pk, err := densePeak(w, trial, offsets); err == nil && pk <= tmax+feasTol {
			trialPeaks[j] = pk
		}
	}
	canRaise := func(j int) bool { return canStep(specs[j], dr) }
	refillCap := 2000
	if pol != nil {
		// Each sparse refill iteration costs up to sparseTrialCap dense
		// evaluations at hundreds of milliseconds apiece; bound the polish.
		refillCap = sparsePCORefillIters
	}
	allJ := make([]int, n)
	for j := range allJ {
		allJ[j] = j
	}
	for iter := 0; iter < refillCap && peak <= tmax+feasTol; iter++ {
		if err := p.ctxErr(); err != nil {
			st.degrade(DegradedRefill)
			break
		}
		cand := allJ
		if pol != nil {
			cand = pol.refillers(st.hot, specs, canRaise)
		}
		for j := range trialPeaks {
			trialPeaks[j] = math.Inf(1)
		}
		trialScan(ev, workers, specs, cand, dr, refillTrial)
		bestJ := -1
		var bestGain, bestPeakAfter float64
		for _, j := range cand {
			c := specs[j]
			pk := trialPeaks[j]
			if math.IsInf(pk, 1) {
				continue
			}
			gain := (c.High.Voltage - c.Low.Voltage)
			if bestJ == -1 || gain > bestGain || (gain == bestGain && pk < bestPeakAfter) {
				bestJ, bestGain, bestPeakAfter = j, gain, pk
			}
		}
		if bestJ == -1 {
			break
		}
		specs[bestJ].RH = steppedRH(specs[bestJ], dr)
		peak = bestPeakAfter
	}

	// The thermal view certified `peak`; emit the driver view.
	emit, err := shiftedCycle(st.tc, specs, offsets, p.Overhead, cycleEmit)
	if err != nil {
		return nil, err
	}

	st.evals += ev.count() - evals0
	return &Result{
		Name:       "PCO",
		Schedule:   emit,
		Throughput: nominalThroughput(specs),
		PeakRise:   peak,
		M:          st.m,
		Feasible:   peak <= tmax+feasTol,
		Elapsed:    since(start),
		Evals:      st.evals,
		Degraded:   st.degraded,
		MEvaluated: st.mEvaluated,
	}, nil
}
