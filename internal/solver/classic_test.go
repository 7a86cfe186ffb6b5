package solver

import (
	"math"

	"thermosc/internal/sim"
)

// classicEval is the reference evaluator the differential tests compare
// the arena evaluator against: every evaluation builds its thermal-view
// Schedule and solves it through sim.NewStableCached, and the m-search is
// the full classic scan, with no reliance on Theorem 5's quasi-convexity.
type classicEval struct {
	evalCount
	p   Problem
	eng *sim.Engine
}

// newClassicEval is the newEvalFunc of the classic reference evaluator.
func newClassicEval(p Problem, eng *sim.Engine, _ int) evaluator {
	return &classicEval{p: p, eng: eng}
}

func (e *classicEval) searchM(specs []coreSpec, startM, maxM int) (mSearch, error) {
	return searchMClassic(e.p, e.eng, specs, startM, maxM)
}

// stable solves the thermal-view cycle, shifted by offs, classically.
func (e *classicEval) stable(specs []coreSpec, offs []float64, tc float64, cache *sim.PeriodCache) (*sim.Stable, error) {
	cyc, err := shiftedCycle(tc, specs, offs, e.p.Overhead, cycleThermal)
	if err != nil {
		return nil, err
	}
	e.n.Add(1)
	return sim.NewStableCached(e.p.Model, cyc, cache)
}

func (e *classicEval) endTemps(_ int, dst []float64, specs []coreSpec, tc float64, cache *sim.PeriodCache) error {
	stable, err := e.stable(specs, nil, tc, cache)
	if err != nil {
		return err
	}
	copy(dst, stable.End(stable.NumIntervals() - 1)[:len(dst)])
	return nil
}

func (e *classicEval) densePeak(_ int, specs []coreSpec, offs []float64, tc float64, cache *sim.PeriodCache) (float64, error) {
	stable, err := e.stable(specs, offs, tc, cache)
	if err != nil {
		return math.Inf(1), err
	}
	dp, _, _ := stable.PeakDense(peakSamples)
	return dp, nil
}

func (e *classicEval) withRH(_ int, specs []coreSpec, j int, rh float64) []coreSpec {
	trial := append([]coreSpec(nil), specs...)
	trial[j].RH = rh
	return trial
}

func (e *classicEval) release() {}

// searchMClassic is the reference full scan: classicMPeak on every m in
// [startM, maxM]. The fold visits every candidate before deciding, so
// evals counts all successful evaluations even when an earlier m failed.
func searchMClassic(p Problem, eng *sim.Engine, specs []coreSpec, startM, maxM int) (mSearch, error) {
	n := maxM - startM + 1
	if n <= 0 {
		return mSearch{peak: math.Inf(1)}, nil
	}
	cands := make([]mCandidate, n)
	parForW(p.workers(), n, func(_, k int) {
		cands[k] = classicMPeak(p, eng, specs, startM+k)
	})
	out := mSearch{peak: math.Inf(1)}
	for _, c := range cands {
		out.fold(c)
	}
	return out.done(p)
}
