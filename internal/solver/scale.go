package solver

import (
	"math"
	"slices"
	"sort"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/sim"
	"thermosc/internal/thermal"
)

// This file is the sparse-backend scale policy: the deterministic pruning
// rules that keep AO/PCO inside interactive deadlines on platforms with
// hundreds of cores, where one exact stable evaluation costs tens of
// milliseconds instead of microseconds.
//
// On the dense backend every trial scan is exhaustive and nothing here
// applies — small platforms keep their historic bit-identical plans. On
// the sparse backend the policy replaces three exhaustive scans:
//
//   - the m-search walks a geometric grid plus a local refinement instead
//     of every integer (searchMSparse);
//   - the TPT/refill/dense-adjust loops evaluate only the top
//     sparseTrialCap candidate cores per iteration, ranked by a
//     steady-state sensitivity proxy (unit responses, one sparse solve
//     per core, computed once per solve);
//   - PCO phase-searches only the sparsePhaseCores cores most strongly
//     coupled to the hot spot, and bounds its refill iterations.
//
// Every rule is a pure function of the model and the candidate specs —
// no timing, no worker count, no randomness — so plans remain
// bit-identical across worker widths and repeated runs, exactly like the
// dense policy. What changes versus an (unaffordably) exhaustive sparse
// scan is only which near-optimal plan the greedy loops settle on; the
// feasibility guarantee is untouched because every accepted step is still
// verified by exact stable evaluation, and the final plan still passes
// the dense verification sweep.
const (
	// sparseTrialCap is the number of candidate cores each TPT/refill/
	// dense-adjust iteration evaluates on the sparse backend.
	sparseTrialCap = 8
	// sparsePhaseCores bounds how many cores PCO phase-searches.
	sparsePhaseCores = 4
	// sparseRefillIters bounds the AO headroom-refill iterations.
	sparseRefillIters = 16
	// sparsePCORefillIters bounds PCO's dense-verified refill iterations
	// (each costs sparseTrialCap dense-sampled evaluations).
	sparsePCORefillIters = 8
	// sparseMGridRatio is the geometric step of the sparse m-search grid.
	sparseMGridRatio = 1.4
	// sparseSeedSafety shrinks the duty-cycle seed of below-minimum ideal
	// voltages (see sparseSeedSpecs): static power is convex in voltage
	// with ψ(0) = 0, so the voltage-linear duty RH = v/vmin burns at least
	// the ideal power — the safety margin keeps the seed on the feasible
	// side so the (per-quantum, expensive-at-scale) TPT reduction starts
	// converged and the bounded refill climbs from below.
	sparseSeedSafety = 0.85
	// sparseSeedBisects is the bisection depth of the feasibility backoff
	// (resolution 2^-12 on the voltage scale factor).
	sparseSeedBisects = 12
	// sparseSeedMargin (K) is how far below the budget the backoff aims:
	// it absorbs the peak shift when the m-search later moves the
	// oscillation count away from the m=1 probe, so the TPT reduction
	// rarely has distance to cover.
	sparseSeedMargin = 0.5
)

// scalePolicy carries the precomputed sensitivity proxy of one sparse
// solve. nil (dense backend, or few enough cores) means exhaustive scans.
type scalePolicy struct {
	md *thermal.Model
	ur *mat.Dense // dim×n steady unit responses: ur[node][core] K/W
	// scratch of the ranking (reused across iterations)
	idx   []int
	score []float64
}

// newScalePolicy returns the pruning policy for md, or nil when the model
// runs densely or is small enough to scan exhaustively.
func newScalePolicy(md *thermal.Model) *scalePolicy {
	if !md.SparsePath() || md.NumCores() <= sparseTrialCap {
		return nil
	}
	n := md.NumCores()
	return &scalePolicy{
		md:    md,
		ur:    md.UnitResponses(),
		idx:   make([]int, 0, n),
		score: make([]float64, n),
	}
}

// deltaPower is core j's static-power swing between its two modes,
// scaled to the physical core — the magnitude knob of every sensitivity
// score.
func (sp *scalePolicy) deltaPower(specs []coreSpec, j int) float64 {
	pm := sp.md.Power()
	c := specs[j]
	return sp.md.CoreScale(j) * (pm.Static(c.High) - pm.Static(c.Low))
}

// topBy fills sp.idx with up to cap eligible cores ranked by descending
// score (ties to the smaller index — the sequential scan's preference).
// The returned slice aliases sp.idx and is valid until the next ranking.
func (sp *scalePolicy) topBy(specs []coreSpec, cap int, eligible func(int) bool, score func(int) float64) []int {
	sp.idx = sp.idx[:0]
	for j := range specs {
		if !eligible(j) {
			continue
		}
		sp.score[j] = score(j)
		sp.idx = append(sp.idx, j)
	}
	sort.SliceStable(sp.idx, func(a, b int) bool {
		ia, ib := sp.idx[a], sp.idx[b]
		if sp.score[ia] != sp.score[ib] {
			return sp.score[ia] > sp.score[ib]
		}
		return ia < ib
	})
	if len(sp.idx) > cap {
		sp.idx = sp.idx[:cap]
	}
	return sp.idx
}

// coolers ranks the cores whose slowdown most plausibly cools the hot
// node: coupling ur[hot][j] times the power swing — the first-order
// steady-state effect of trimming core j's high ratio.
func (sp *scalePolicy) coolers(hot int, specs []coreSpec, eligible func(int) bool) []int {
	return sp.topBy(specs, sparseTrialCap, eligible, func(j int) float64 {
		return sp.ur.At(hot, j) * sp.deltaPower(specs, j)
	})
}

// refillers ranks the cores with the best throughput gain per unit of
// predicted heating of the hot node — the refill loop's own score, with
// the exact trial peak replaced by the steady sensitivity proxy.
func (sp *scalePolicy) refillers(hot int, specs []coreSpec, eligible func(int) bool) []int {
	return sp.topBy(specs, sparseTrialCap, eligible, func(j int) float64 {
		gain := specs[j].High.Voltage - specs[j].Low.Voltage
		heat := sp.ur.At(hot, j) * sp.deltaPower(specs, j)
		return gain / math.Max(heat, 1e-12)
	})
}

// phaseCores ranks the oscillating cores most strongly coupled to the hot
// node — the ones whose phase shift moves the most heat away from the
// peak — and returns a membership mask over all cores.
func (sp *scalePolicy) phaseCores(hot int, specs []coreSpec) []bool {
	top := sp.topBy(specs, sparsePhaseCores, func(j int) bool {
		return specs[j].oscillating()
	}, func(j int) float64 {
		return sp.ur.At(hot, j) * sp.deltaPower(specs, j)
	})
	mask := make([]bool, len(specs))
	for _, j := range top {
		mask[j] = true
	}
	return mask
}

// sparseSeedSpecs rewrites the ideal-pinned seed for the sparse backend:
// neighborSpecs deliberately clamps a below-minimum ideal voltage to the
// CONSTANT lowest level (RH = 1), relying on the TPT reduction to cut it
// back — cheap on small dense platforms, but at hundreds of cores that
// recovery costs tens of thousands of one-quantum iterations (each a
// multi-millisecond exact evaluation). Here the off↔min oscillation
// starts at eq. (11)'s own voltage-linear duty cycle RH = v/vmin instead,
// shrunk by sparseSeedSafety, so the seed lands near-feasible and the
// adjustment loops only fine-tune.
func sparseSeedSpecs(specs []coreSpec, volts []float64, levels *power.LevelSet) {
	vmin := levels.Min()
	for i := range specs {
		c := &specs[i]
		if !c.Low.IsOff() || c.High.IsOff() || c.RH != 1 {
			continue
		}
		if volts[i] <= 0 || volts[i] >= vmin {
			continue
		}
		c.RH = sparseSeedSafety * volts[i] / vmin
	}
}

// sparseFeasibleSeed turns the ideal continuous voltages into a
// near-feasible starting point for the sparse backend. The ideal-pinned
// solve assumes EVERY core's steady temperature sits exactly at Tmax;
// on dense platforms that is mildly optimistic and the TPT reduction
// cleans it up, but on large thermally-constrained platforms many ideal
// voltages come out non-positive — the solve effectively budgeted
// negative power (active cooling) for those cores, so the remaining
// voltages can be infeasible by hundreds of Kelvin, a distance the
// one-quantum-per-iteration TPT loop cannot cover at multi-millisecond
// evaluation cost. Instead, bisect a global scale factor s on the
// (clamped-to-zero) ideal voltage vector: s = 0 is all-off and trivially
// feasible, and each probe is ONE exact stable evaluation of the m=1
// cycle. The returned specs are feasible at the probe within
// sparseSeedMargin, leaving the adjustment loops only fine-tuning.
func sparseFeasibleSeed(p Problem, eng *sim.Engine, volts []float64) ([]coreSpec, error) {
	scaled := func(s float64) []coreSpec {
		vs := make([]float64, len(volts))
		for i, v := range volts {
			vs[i] = s * math.Max(0, v)
		}
		specs := neighborSpecs(p.Levels, vs, !p.DisallowOff)
		sparseSeedSpecs(specs, vs, p.Levels)
		return specs
	}
	probe := func(specs []coreSpec) (float64, error) {
		cyc, err := buildCycle(p.BasePeriod, specs, p.Overhead, cycleThermal)
		if err != nil {
			return math.Inf(1), err
		}
		pk, _, err := eng.StepUpPeak(cyc)
		return pk, err
	}
	target := p.tmaxRise() - sparseSeedMargin
	specs := scaled(1)
	pk, err := probe(specs)
	if err != nil {
		return nil, err
	}
	if pk <= target {
		return specs, nil
	}
	// Invariant: lo is feasible (s=0 is all-off, peak 0), hi is not.
	lo, hi := 0.0, 1.0
	best := scaled(0)
	for iter := 0; iter < sparseSeedBisects; iter++ {
		if p.ctxErr() != nil {
			break // keep the feasible best-so-far; later phases tag Degraded
		}
		mid := 0.5 * (lo + hi)
		sp := scaled(mid)
		pk, err := probe(sp)
		if err != nil {
			return nil, err
		}
		if pk <= target {
			lo, best = mid, sp
		} else {
			hi = mid
		}
	}
	return best, nil
}

// sparseMGrid returns the geometric candidate grid of the sparse
// m-search: startM, then ~sparseMGridRatio steps, always ending at maxM.
func sparseMGrid(startM, maxM int) []int {
	if maxM < startM {
		return nil
	}
	grid := make([]int, 0, 24)
	m := startM
	for m < maxM {
		grid = append(grid, m)
		next := int(float64(m) * sparseMGridRatio)
		if next <= m {
			next = m + 1
		}
		m = next
	}
	return append(grid, maxM)
}

// searchMSparse is the sparse-backend m-search: evaluate the geometric
// grid exactly (every screen is a Theorem-1 stable evaluation — there is
// no cheaper composed evaluator without an eigenbasis), pick the
// quasi-convex minimum, then refine its immediate neighbors. Candidates
// fan out across the worker pool; the fold visits them in ascending m, so
// the outcome is identical for every worker width.
func searchMSparse(e *arenaEval, specs []coreSpec, startM, maxM int) (mSearch, error) {
	out := mSearch{peak: math.Inf(1)}
	eval := func(ms []int) {
		cands := make([]mCandidate, len(ms))
		parForW(e.p.workers(), len(ms), func(w, k int) {
			cands[k] = e.stableMPeak(w, specs, ms[k])
		})
		for _, c := range cands {
			out.fold(c)
		}
	}
	grid := sparseMGrid(startM, maxM)
	eval(grid)
	if out.err == nil && out.m != 0 {
		// Local refinement around the grid minimum: the curve is smooth
		// between grid points, so only the immediate neighbors can beat it.
		// A smaller neighbor with an equal peak wins through fold's m
		// tie-break.
		var refine []int
		for _, mm := range []int{out.m - 1, out.m + 1} {
			if mm >= startM && mm <= maxM && !slices.Contains(grid, mm) {
				refine = append(refine, mm)
			}
		}
		eval(refine)
	}
	return out.done(e.p)
}

// stableMPeak evaluates oscillation count mm exactly through worker w's
// arena: the Theorem-1 peak of the thermal-view cycle at tc = t_p/mm.
func (e *arenaEval) stableMPeak(w int, specs []coreSpec, mm int) mCandidate {
	if err := e.p.ctxErr(); err != nil {
		return mCandidate{m: mm, err: err}
	}
	tc := e.p.BasePeriod / float64(mm)
	cache, err := e.eng.PeriodCache(tc)
	if err != nil {
		return mCandidate{m: mm, err: err}
	}
	a, err := e.setTwoMode(w, specs, tc)
	if err == nil {
		err = a.StableEndTempsInto(e.ends[w], cache)
	}
	if err != nil {
		return mCandidate{m: mm, err: err}
	}
	pk, _ := mat.VecMax(e.ends[w])
	return mCandidate{m: mm, peak: pk, cache: cache}
}
