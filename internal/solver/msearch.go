package solver

import (
	"math"
	"sync"
	"sync/atomic"

	"thermosc/internal/schedule"
	"thermosc/internal/sim"
)

// This file is the parallel half of the AO/PCO evaluation engine: a
// deterministic worker pool (parForW), the evaluator of a solve
// (evaluator), and the fanned-out m-searches. parForW is the solver's
// only parallel mechanism, and its contract is that any worker count —
// including 1, the sequential reference path — produces bit-identical
// results after the same evaluations. That holds because
// every candidate (an oscillation count m, a TPT/refill trial index j, a
// PCO phase offset k) is evaluated independently with arithmetic
// untouched by scheduling, and the winner is reduced by scanning
// candidates in their sequential order with the sequential comparison
// operators. Worker indices select private scratch arenas, never values.

// parForW runs f(worker, i) for every i in [0, n) across at most `workers`
// goroutines, passing each goroutine's stable pool index so it can own
// per-worker scratch (an EvalArena). workers <= 1 (or n <= 1) degenerates
// to a plain loop on the calling goroutine as worker 0 — no spawning, same
// call order as the pre-parallel code. Iteration claiming is a single
// atomic counter, so the set of executed indices is always exactly [0, n).
// f's arithmetic must not depend on the worker index — only which scratch
// buffers it touches may.
func parForW(workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// evaluator is the evaluation strategy of one AO/PCO solve, built once
// per solve. arenaEval, the one AO and PCO use, evaluates through
// per-worker sim.EvalArena scratch. The tests substitute a classic
// reference evaluator that builds and solves a Schedule per evaluation
// and scans every m; both yield bit-identical temperatures, peaks and
// plans and differ only in the m-search's Evals/MEvaluated accounting
// and in speed. w selects the calling worker's scratch, so calls with
// distinct w may run concurrently: the engine's caches synchronize
// internally and the evaluation count is atomic.
type evaluator interface {
	// searchM scans m ∈ [startM, maxM] for the peak-minimizing
	// oscillation count (Algorithm 2 phase 2).
	searchM(specs []coreSpec, startM, maxM int) (mSearch, error)
	// endTemps writes the stable end-of-cycle core temperature rises of
	// the aligned thermal-view cycle of length tc into dst; by Theorem 1
	// their maximum is the cycle's peak.
	endTemps(w int, dst []float64, specs []coreSpec, tc float64, cache *sim.PeriodCache) error
	// densePeak is the densely sampled stable peak of the thermal-view
	// cycle: aligned when offs is nil, else with core i's phase shifted
	// by offs[i].
	densePeak(w int, specs []coreSpec, offs []float64, tc float64, cache *sim.PeriodCache) (float64, error)
	// withRH returns specs with core j's high-mode ratio replaced by rh,
	// valid until worker w's next trial.
	withRH(w int, specs []coreSpec, j int, rh float64) []coreSpec
	// count is the number of endTemps/densePeak evaluations so far.
	count() int64
	// release returns the scratch to the engine; the evaluator is dead
	// afterwards.
	release()
}

// newEvalFunc builds the evaluator of one solve on eng for platforms with
// the given core count.
type newEvalFunc func(p Problem, eng *sim.Engine, cores int) evaluator

// newArenaEval is the newEvalFunc of AO and PCO.
func newArenaEval(p Problem, eng *sim.Engine, cores int) evaluator {
	workers := p.workers()
	e := &arenaEval{
		p:      p,
		eng:    eng,
		arenas: make([]*sim.EvalArena, workers),
		tms:    make([][]schedule.TwoModeSpec, workers),
		trial:  make([][]coreSpec, workers),
		ends:   make([][]float64, workers),
	}
	for w := range e.arenas {
		e.arenas[w] = eng.AcquireArena()
		e.tms[w] = make([]schedule.TwoModeSpec, cores)
		e.trial[w] = make([]coreSpec, cores)
		e.ends[w] = make([]float64, cores)
	}
	return e
}

// evalCount is the atomic evaluation tally of an evaluator.
type evalCount struct{ n atomic.Int64 }

func (c *evalCount) count() int64 { return c.n.Load() }

// arenaEval owns the per-worker scratch of one solve: an EvalArena plus
// reusable two-mode-spec, trial-spec and end-temperature buffers per
// worker slot, acquired up front and released (with NaN poisoning, see
// sim.EvalArena) when the solve ends.
type arenaEval struct {
	evalCount
	p      Problem
	eng    *sim.Engine
	arenas []*sim.EvalArena
	tms    [][]schedule.TwoModeSpec
	trial  [][]coreSpec
	ends   [][]float64 // end temperatures of the sparse m-search
}

func (e *arenaEval) searchM(specs []coreSpec, startM, maxM int) (mSearch, error) {
	if e.eng.Model().SparsePath() {
		// No eigenbasis, no composed screening: the sparse backend walks a
		// geometric grid of exact evaluations instead (see scale.go).
		return searchMSparse(e, specs, startM, maxM)
	}
	return searchMIncremental(e, specs, startM, maxM)
}

// setTwoMode loads the aligned thermal-view cycle into worker w's arena.
func (e *arenaEval) setTwoMode(w int, specs []coreSpec, tc float64) (*sim.EvalArena, error) {
	fillTwoModeSpecs(e.tms[w], specs, e.p.Overhead, tc, cycleThermal)
	return e.arenas[w], e.arenas[w].SetTwoMode(tc, e.tms[w])
}

func (e *arenaEval) endTemps(w int, dst []float64, specs []coreSpec, tc float64, cache *sim.PeriodCache) error {
	a, err := e.setTwoMode(w, specs, tc)
	if err != nil {
		return err
	}
	e.n.Add(1)
	return a.StableEndTempsInto(dst, cache)
}

func (e *arenaEval) densePeak(w int, specs []coreSpec, offs []float64, tc float64, cache *sim.PeriodCache) (float64, error) {
	a := e.arenas[w]
	if offs == nil {
		if _, err := e.setTwoMode(w, specs, tc); err != nil {
			return math.Inf(1), err
		}
	} else {
		cyc, err := shiftedCycle(tc, specs, offs, e.p.Overhead, cycleThermal)
		if err == nil {
			err = a.SetSchedule(cyc)
		}
		if err != nil {
			return math.Inf(1), err
		}
	}
	e.n.Add(1)
	return a.StableDensePeak(cache, peakSamples)
}

func (e *arenaEval) withRH(w int, specs []coreSpec, j int, rh float64) []coreSpec {
	trial := e.trial[w]
	copy(trial, specs)
	trial[j].RH = rh
	return trial
}

func (e *arenaEval) release() {
	for _, a := range e.arenas {
		e.eng.ReleaseArena(a)
	}
	e.arenas = nil
}

// mSearch is the outcome of one m-search scan.
type mSearch struct {
	m         int     // chosen oscillation count (0 if no candidate succeeded)
	peak      float64 // classic Theorem-1 peak of the chosen m
	cache     *sim.PeriodCache
	evals     int64 // successful evaluations (screens + classic confirmations)
	evaluated int   // m candidates screened (== scan width unless early-stopped)
	truncated bool  // the context deadline cut the scan short
	err       error // the first real (non-deadline) candidate error
}

// mCandidate is one evaluated oscillation count.
type mCandidate struct {
	m     int
	peak  float64
	cache *sim.PeriodCache
	err   error
}

// fold merges one candidate into the scan. A context abort truncates the
// scan instead of failing it, the first real error is kept, and a
// strictly lower peak wins — or an equal peak at a smaller m, so the
// smallest m among equal minima wins even when candidates arrive out of
// ascending order (the sparse refinement pass).
func (out *mSearch) fold(c mCandidate) {
	if c.err != nil {
		if isCtxErr(c.err) {
			out.truncated = true
		} else if out.err == nil {
			out.err = c.err
		}
		return
	}
	out.evals++
	out.evaluated++
	if c.peak < out.peak || (c.peak == out.peak && c.m < out.m) {
		out.peak, out.m, out.cache = c.peak, c.m, c.cache
	}
}

// done finishes a scan with its anytime semantics. A real error aborts
// it, keeping the evaluation count (the pool really did run them) and
// the error of the first failing candidate folded, the sequential loop's
// first abort. A scan the deadline cut before any candidate won refuses
// with an ErrDeadline. Otherwise the winner stands, also when the scan
// was truncated — a valid (if possibly suboptimal) oscillation count the
// caller tags Degraded.
func (out mSearch) done(p Problem) (mSearch, error) {
	if out.err != nil {
		return mSearch{peak: math.Inf(1), evals: out.evals}, out.err
	}
	if out.m == 0 && out.truncated {
		return out, deadlineErr(p.ctxErr())
	}
	return out, nil
}

// Tuning of the incremental m-search. The screening sweep walks candidates
// in fixed-size chunks (so the early-stop decision lands on the same
// boundary for every worker width) and stops once the composed peak has
// risen for a full window of consecutive candidates — Theorem 5's
// quasi-convex shape makes everything past that point worse. The window is
// deliberately larger than small scans (forced m, tight overhead bounds)
// ever reach, and the margin keeps plateau wiggle from counting as a rise.
// Screened minima within confirmBand Kelvin of the best composed peak are
// re-evaluated classically: the composed evaluator agrees with the classic
// path to ≲1e-8 K (see sim.EvalArena.ComposedEndPeak), two orders of
// magnitude tighter than the band, so the classic winner is always inside
// it and the chosen plan is bit-identical to a full classic scan.
const (
	mScreenChunk = 32
	mStopWindow  = 24
	mStopMargin  = 1e-3
	mConfirmBand = 1e-6
)

// searchMIncremental is the default dense-backend m-search. It screens
// candidates with the composed eigenbasis evaluator (O(z·dim) each, no
// per-candidate dense operators), early-terminates the sweep once the peak
// is decidedly past Theorem 5's minimum, and classically confirms the
// near-minimal band so the chosen (m, peak, cache) matches the full
// classic scan bit for bit.
func searchMIncremental(e *arenaEval, specs []coreSpec, startM, maxM int) (mSearch, error) {
	p := e.p
	n := maxM - startM + 1
	if n <= 0 {
		return mSearch{peak: math.Inf(1)}, nil
	}
	// Screens keep only peak and error (not an mCandidate's m and cache):
	// the scan can span thousands of candidates.
	type screenResult struct {
		peak float64
		err  error
	}
	cands := make([]screenResult, n)
	screen := mSearch{peak: math.Inf(1)} // fold of the composed peaks
	rising := 0
	screened := 0 // candidates attempted (scan prefix length)
	for base := 0; base < n; base += mScreenChunk {
		end := min(base+mScreenChunk, n)
		parForW(p.workers(), end-base, func(w, k int) {
			c := &cands[base+k]
			if c.err = p.ctxErr(); c.err != nil {
				return
			}
			a, err := e.setTwoMode(w, specs, p.BasePeriod/float64(startM+base+k))
			if err == nil {
				c.peak, err = a.ComposedEndPeak()
			}
			c.err = err
		})
		// Sequential chunk reduction: counting, error precedence, and the
		// early-stop decision all run in candidate order on one goroutine,
		// so they are identical for every worker width.
		for idx := base; idx < end; idx++ {
			c := cands[idx]
			best := screen.peak
			screen.fold(mCandidate{m: startM + idx, peak: c.peak, err: c.err})
			switch {
			case c.err != nil:
			case c.peak > best+mStopMargin:
				rising++
			default:
				rising = 0
			}
		}
		screened = end
		if screen.err != nil {
			return screen.done(p)
		}
		if rising >= mStopWindow {
			break
		}
	}

	// Classic confirmation of the near-minimal band: every screened
	// candidate within mConfirmBand of the best composed peak is
	// re-evaluated classically, and the reduction keeps the smallest m
	// with the strictly lowest classic peak — the full classic scan's
	// winner and tie-break. A successful screen puts its minimum in the
	// band, so no winner means the deadline beat the scan.
	out := mSearch{peak: math.Inf(1), evals: screen.evals, evaluated: screen.evaluated, truncated: screen.truncated}
	for idx, c := range cands[:screened] {
		if c.err != nil || c.peak > screen.peak+mConfirmBand {
			continue
		}
		cc := classicMPeak(p, e.eng, specs, startM+idx)
		if isCtxErr(cc.err) {
			out.truncated = true
			break
		}
		if cc.err != nil {
			return mSearch{peak: math.Inf(1), evals: out.evals}, cc.err
		}
		out.evals++
		if cc.peak < out.peak {
			out.peak, out.m, out.cache = cc.peak, cc.m, cc.cache
		}
	}
	return out.done(p)
}

// classicMPeak evaluates oscillation count mm classically: the
// thermal-view cycle at tc = t_p/mm, its period operators from the shared
// engine pool, and the Schedule-based Theorem-1 stable peak.
func classicMPeak(p Problem, eng *sim.Engine, specs []coreSpec, mm int) mCandidate {
	if err := p.ctxErr(); err != nil {
		return mCandidate{m: mm, err: err}
	}
	tc := p.BasePeriod / float64(mm)
	cyc, err := buildCycle(tc, specs, p.Overhead, cycleThermal)
	if err != nil {
		return mCandidate{m: mm, err: err}
	}
	cache, err := eng.PeriodCache(tc)
	if err != nil {
		return mCandidate{m: mm, err: err}
	}
	peak, _, err := sim.StepUpPeak(eng.Model(), cyc, cache)
	return mCandidate{m: mm, peak: peak, cache: cache, err: err}
}
