package solver

import (
	"math"
	"sync/atomic"

	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
)

// PCO implements phase-conscious oscillation (§VI): it runs AO, then
// shifts each core's oscillation phase to spatially interleave high- and
// low-voltage intervals, and finally refills the freed temperature
// headroom by raising high-mode ratios while the (densely verified) peak
// stays within the threshold.
//
// Shifted schedules are no longer step-up, so PCO verifies peaks by dense
// sampling (Problem.PeakSamples per state interval) instead of Theorem 1's
// end-of-period shortcut — which is exactly why PCO costs more CPU time
// than AO in Table V. The dense evaluations run through the AO run's
// shared sim.Engine, so the per-interval operators (including the
// fractional sample offsets, which recur across every candidate) are
// computed once; the phase search and the refill trial scan fan out
// across p.Workers goroutines with deterministic reductions — any worker
// count returns the identical plan.
func PCO(p Problem) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	start := now()
	st, err := runAO(p)
	if err != nil {
		return nil, err
	}
	md := p.Model
	tmax := p.tmaxRise()
	workers := p.workers()
	n := len(st.specs)
	offsets := make([]float64, n)
	var denseEvals atomic.Int64

	// Per-worker arena scratch for the incremental dense evaluations (the
	// AO run released its own arenas back to the engine pool, so these are
	// typically the same buffers, re-acquired).
	var wa *workerArenas
	if !p.ClassicEval {
		wa = newWorkerArenas(st.eng, workers, n)
		defer wa.release()
	}

	// densePeak evaluates the stable-status peak of the specs with the
	// given per-core phase offsets. w selects the calling worker's arena
	// scratch (ignored by the classic path); both paths are bit-identical.
	// Safe for concurrent candidates: arenas are per-worker and the engine
	// caches synchronize internally.
	densePeak := func(w int, specs []coreSpec, offs []float64) (float64, *schedule.Schedule, error) {
		cyc, err := buildCycle(st.tc, specs, p.Overhead, cycleThermal)
		if err != nil {
			return math.Inf(1), nil, err
		}
		for i, off := range offs {
			if off != 0 {
				cyc = cyc.Shift(i, off)
			}
		}
		if !p.ClassicEval {
			denseEvals.Add(1)
			a := wa.arenas[w]
			if err := a.SetSchedule(cyc); err != nil {
				return math.Inf(1), nil, err
			}
			pk, err := a.StableDensePeak(st.cache, p.PeakSamples)
			if err != nil {
				return math.Inf(1), nil, err
			}
			return pk, cyc, nil
		}
		stable, err := sim.NewStableCached(md, cyc, st.cache)
		if err != nil {
			return math.Inf(1), nil, err
		}
		denseEvals.Add(1)
		peak, _, _ := stable.PeakDense(p.PeakSamples)
		return peak, cyc, nil
	}

	peak, cyc, err := densePeak(0, st.specs, offsets)
	if err != nil {
		return nil, err
	}

	// Phase search: greedily, core by core, pick the offset that minimizes
	// the dense peak (offset 0 — the AO alignment — is always a candidate,
	// so the phase search never hurts). Candidate offsets for one core are
	// independent, so they fan out across the worker pool; the winner is
	// chosen deterministically (lowest peak, ties to the smallest offset).
	peaks := make([]float64, p.PCOPhaseSteps)
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
	pol := newScalePolicy(md)
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
		parForW(workers, p.PCOPhaseSteps, func(w, k int) {
			offs := offsW[w]
			copy(offs, offsets)
			offs[i] = float64(k) / float64(p.PCOPhaseSteps) * st.tc
			pk, _, err := densePeak(w, st.specs, offs)
			if err != nil {
				peaks[k] = math.Inf(1)
				return
			}
			peaks[k] = pk
		})
		bestOff, bestPeak := 0.0, math.Inf(1)
		for k, pk := range peaks {
			if pk < bestPeak {
				bestPeak = pk
				bestOff = float64(k) / float64(p.PCOPhaseSteps) * st.tc
			}
		}
		offsets[i] = bestOff
	}
	peak, cyc, err = densePeak(0, st.specs, offsets)
	if err != nil {
		return nil, err
	}

	// Headroom refill: raise the most valuable high-ratio while the peak
	// stays under the threshold. Per-core trials are independent; the
	// reduction keeps the sequential tie-break (highest gain, then lowest
	// resulting peak, then the smallest core index).
	dr := p.TUnitFrac
	specs := append([]coreSpec(nil), st.specs...)
	type refillTrial struct {
		ok   bool
		peak float64
		cyc  *schedule.Schedule
	}
	trials := make([]refillTrial, n)
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
			cand = pol.refillers(st.hot, specs, func(j int) bool {
				c := specs[j]
				return c.High.Voltage > c.Low.Voltage && c.RH < 1
			})
		}
		for j := range trials {
			trials[j] = refillTrial{}
		}
		parForW(workers, len(cand), func(w, k int) {
			j := cand[k]
			c := specs[j]
			if c.High.Voltage <= c.Low.Voltage || c.RH >= 1 {
				return
			}
			var tsp []coreSpec
			if p.ClassicEval {
				tsp = withRH(specs, j, math.Min(1, c.RH+dr))
			} else {
				tsp = wa.withRHInto(w, specs, j, math.Min(1, c.RH+dr))
			}
			pk, tc2, err := densePeak(w, tsp, offsets)
			if err != nil || pk > tmax+feasTol {
				return
			}
			trials[j] = refillTrial{ok: true, peak: pk, cyc: tc2}
		})
		bestJ := -1
		var bestGain, bestPeakAfter float64
		var bestCyc *schedule.Schedule
		for _, j := range cand {
			c := specs[j]
			if !trials[j].ok {
				continue
			}
			gain := (c.High.Voltage - c.Low.Voltage)
			if bestJ == -1 || gain > bestGain || (gain == bestGain && trials[j].peak < bestPeakAfter) {
				bestJ, bestGain, bestPeakAfter, bestCyc = j, gain, trials[j].peak, trials[j].cyc
			}
		}
		if bestJ == -1 {
			break
		}
		specs[bestJ].RH = math.Min(1, specs[bestJ].RH+dr)
		peak, cyc = bestPeakAfter, bestCyc
	}
	_ = cyc // the thermal view certified `peak`; emit the driver view below

	emit, err := buildCycle(st.tc, specs, p.Overhead, cycleEmit)
	if err != nil {
		return nil, err
	}
	for i, off := range offsets {
		if off != 0 {
			emit = emit.Shift(i, off)
		}
	}

	st.evals += denseEvals.Load()
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

// modesOf extracts the constant modes of a constant schedule (helper for
// tests and experiment reporting).
func modesOf(s *schedule.Schedule) []power.Mode {
	modes := make([]power.Mode, s.NumCores())
	for i := range modes {
		modes[i] = s.ModeAt(i, 0)
	}
	return modes
}
