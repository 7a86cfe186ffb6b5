package solver

import (
	"math"
	"sync"
	"sync/atomic"

	"thermosc/internal/schedule"
	"thermosc/internal/sim"
)

// This file is the parallel half of the AO/PCO evaluation engine: a
// deterministic worker pool (parFor/parForW), the per-worker arena scratch
// (workerArenas), and the fanned-out m-search (searchM). The contract
// mirrors EXS (exs.go): any worker count — including 1, the sequential
// reference path — produces bit-identical results. That holds because
// every candidate (an oscillation count m, a TPT/refill trial index j, a
// PCO phase offset k) is evaluated independently with arithmetic untouched
// by scheduling, and the winner is reduced by scanning candidates in their
// sequential order with the sequential comparison operators. Worker
// indices select private scratch arenas, never values.

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

// parFor is parForW without the worker index, for scans with no
// per-worker scratch.
func parFor(workers, n int, f func(int)) {
	parForW(workers, n, func(_, i int) { f(i) })
}

// workerArenas owns the per-worker evaluation scratch of one solver run:
// an EvalArena plus reusable two-mode-spec and trial-spec buffers per
// worker slot. Acquired from the engine pool up front and released (with
// NaN poisoning, see sim.EvalArena) when the run ends.
type workerArenas struct {
	eng    *sim.Engine
	arenas []*sim.EvalArena
	tms    [][]schedule.TwoModeSpec
	trial  [][]coreSpec
	ends   [][]float64 // per-worker end-temperature buffers (sparse screening)
}

func newWorkerArenas(eng *sim.Engine, workers, cores int) *workerArenas {
	wa := &workerArenas{
		eng:    eng,
		arenas: make([]*sim.EvalArena, workers),
		tms:    make([][]schedule.TwoModeSpec, workers),
		trial:  make([][]coreSpec, workers),
		ends:   make([][]float64, workers),
	}
	for w := 0; w < workers; w++ {
		wa.arenas[w] = eng.AcquireArena()
		wa.tms[w] = make([]schedule.TwoModeSpec, cores)
		wa.trial[w] = make([]coreSpec, cores)
		wa.ends[w] = make([]float64, cores)
	}
	return wa
}

func (wa *workerArenas) release() {
	for _, a := range wa.arenas {
		wa.eng.ReleaseArena(a)
	}
	wa.arenas = nil
}

// withRHInto is withRH writing into worker w's trial buffer instead of
// allocating. The buffer is only valid until the worker's next trial.
func (wa *workerArenas) withRHInto(w int, specs []coreSpec, j int, rh float64) []coreSpec {
	trial := wa.trial[w]
	copy(trial, specs)
	trial[j].RH = rh
	return trial
}

// mSearch is the outcome of one searchM scan.
type mSearch struct {
	m         int     // chosen oscillation count (0 if no candidate succeeded)
	peak      float64 // classic Theorem-1 peak of the chosen m
	cache     *sim.PeriodCache
	evals     int64 // successful evaluations (screens + classic confirmations)
	evaluated int   // m candidates screened (== scan width unless early-stopped)
	truncated bool  // the context deadline cut the scan short
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

// searchM scans m ∈ [startM, maxM] for the peak-minimizing oscillation
// count (Algorithm 2 phase 2). The default incremental path screens
// candidates with the composed eigenbasis evaluator (O(z·dim) each, no
// per-candidate dense operators), early-terminates the sweep once the peak
// is decidedly past Theorem 5's minimum, and classically confirms the
// near-minimal band so the chosen (m, peak, cache) matches the full
// classic scan bit for bit. Problem.ClassicEval forces that full classic
// scan instead.
//
// Anytime semantics: a candidate aborted by the context deadline does not
// fail the scan. If at least one screened candidate was classically
// confirmed, the best of those is returned with truncated=true — a valid
// (if possibly suboptimal) oscillation count the caller tags Degraded.
// Only when the deadline left NO confirmed candidate does searchM return
// an ErrDeadline. A genuine evaluation error aborts with the error of the
// smallest failing m among the candidates actually visited.
//
// wa supplies per-worker scratch; pass nil to let searchM manage its own.
func searchM(p Problem, eng *sim.Engine, specs []coreSpec, startM, maxM int, wa *workerArenas) (mSearch, error) {
	if p.ClassicEval {
		return searchMClassic(p, eng, specs, startM, maxM)
	}
	if wa == nil {
		wa = newWorkerArenas(eng, p.workers(), len(specs))
		defer wa.release()
	}
	if eng.Model().SparsePath() {
		// No eigenbasis, no composed screening: the sparse backend walks a
		// geometric grid of exact evaluations instead (see scale.go).
		return searchMSparse(p, eng, specs, startM, maxM, wa)
	}
	return searchMIncremental(p, eng, specs, startM, maxM, wa)
}

func searchMIncremental(p Problem, eng *sim.Engine, specs []coreSpec, startM, maxM int, wa *workerArenas) (mSearch, error) {
	tp := p.BasePeriod
	n := maxM - startM + 1
	if n <= 0 {
		return mSearch{peak: math.Inf(1)}, nil
	}
	type screenResult struct {
		peak float64
		err  error
	}
	cands := make([]screenResult, n)
	workers := p.workers()

	out := mSearch{peak: math.Inf(1)}
	var firstErr error
	bestComposed := math.Inf(1)
	rising := 0
	screened := 0 // candidates attempted (scan prefix length)
	for base := 0; base < n; base += mScreenChunk {
		end := base + mScreenChunk
		if end > n {
			end = n
		}
		parForW(workers, end-base, func(w, k int) {
			idx := base + k
			if err := p.ctxErr(); err != nil {
				cands[idx] = screenResult{err: err}
				return
			}
			tc := tp / float64(startM+idx)
			a := wa.arenas[w]
			tms := wa.tms[w]
			thermalTwoModeSpecs(tms, specs, p.Overhead, tc)
			if err := a.SetTwoMode(tc, tms); err != nil {
				cands[idx] = screenResult{err: err}
				return
			}
			pk, err := a.ComposedEndPeak()
			cands[idx] = screenResult{peak: pk, err: err}
		})
		// Sequential chunk reduction: counting, error precedence, and the
		// early-stop decision all run in candidate order on one goroutine,
		// so they are identical for every worker width.
		for idx := base; idx < end; idx++ {
			c := cands[idx]
			if c.err != nil {
				if isCtxErr(c.err) {
					out.truncated = true
					continue
				}
				if firstErr == nil {
					firstErr = c.err
				}
				continue
			}
			out.evals++
			out.evaluated++
			switch {
			case c.peak < bestComposed:
				bestComposed = c.peak
				rising = 0
			case c.peak > bestComposed+mStopMargin:
				rising++
			default:
				rising = 0
			}
		}
		screened = end
		if firstErr != nil {
			return mSearch{peak: math.Inf(1), evals: out.evals}, firstErr
		}
		if rising >= mStopWindow {
			break
		}
	}

	// Classic confirmation of the near-minimal band: every screened
	// candidate within mConfirmBand of the best composed peak is
	// re-evaluated through the classic PeriodCache path, and the reduction
	// keeps the smallest m with the strictly lowest classic peak — the
	// full classic scan's winner and tie-break.
	for idx := 0; idx < screened; idx++ {
		c := cands[idx]
		if c.err != nil || c.peak > bestComposed+mConfirmBand {
			continue
		}
		if err := p.ctxErr(); err != nil {
			out.truncated = true
			break
		}
		mm := startM + idx
		tc := tp / float64(mm)
		cyc, err := buildCycle(tc, specs, p.Overhead, cycleThermal)
		if err != nil {
			return mSearch{peak: math.Inf(1), evals: out.evals}, err
		}
		cache, err := eng.PeriodCache(tc)
		if err != nil {
			return mSearch{peak: math.Inf(1), evals: out.evals}, err
		}
		peak, _, err := sim.StepUpPeak(eng.Model(), cyc, cache)
		if err != nil {
			return mSearch{peak: math.Inf(1), evals: out.evals}, err
		}
		out.evals++
		if peak < out.peak {
			out.peak, out.m, out.cache = peak, mm, cache
		}
	}
	if out.m == 0 {
		// No candidate survived to a classic confirmation: the deadline
		// beat the whole scan (screening errors abort above, and any
		// successful screen puts its minimum in the band).
		return mSearch{peak: math.Inf(1), evals: out.evals, truncated: true},
			deadlineErr(p.ctxErr())
	}
	return out, nil
}

// searchMClassic is the reference full scan: every candidate builds its
// thermal-view cycle, fetches the period operators from the shared engine
// pool, and evaluates the Theorem-1 peak through the Schedule-based
// stable solve. Kept behind Problem.ClassicEval for the differential
// tests pinning the incremental path bit-identical to it.
func searchMClassic(p Problem, eng *sim.Engine, specs []coreSpec, startM, maxM int) (mSearch, error) {
	tp := p.BasePeriod
	n := maxM - startM + 1
	if n <= 0 {
		return mSearch{peak: math.Inf(1)}, nil
	}
	type mCandidate struct {
		peak  float64
		cache *sim.PeriodCache
		err   error
	}
	cands := make([]mCandidate, n)
	parFor(p.workers(), n, func(k int) {
		if err := p.ctxErr(); err != nil {
			cands[k] = mCandidate{err: err}
			return
		}
		mm := startM + k
		tc := tp / float64(mm)
		cyc, err := buildCycle(tc, specs, p.Overhead, cycleThermal)
		if err != nil {
			cands[k] = mCandidate{err: err}
			return
		}
		cache, err := eng.PeriodCache(tc)
		if err != nil {
			cands[k] = mCandidate{err: err}
			return
		}
		peak, _, err := sim.StepUpPeak(eng.Model(), cyc, cache)
		if err != nil {
			cands[k] = mCandidate{err: err}
			return
		}
		cands[k] = mCandidate{peak: peak, cache: cache}
	})

	// The reduction scans every candidate before deciding: evals must
	// count all successful evaluations even when an earlier m failed
	// (the pool really did run them), and the reported error is the
	// smallest failing m's, matching the sequential loop's first abort.
	// Context aborts are tallied separately — they truncate, not fail.
	out := mSearch{peak: math.Inf(1)}
	var firstErr error
	for k, c := range cands {
		if c.err != nil {
			if isCtxErr(c.err) {
				out.truncated = true
				continue
			}
			if firstErr == nil {
				firstErr = c.err
			}
			continue
		}
		out.evals++
		out.evaluated++
		if c.peak < out.peak {
			out.peak, out.m, out.cache = c.peak, startM+k, c.cache
		}
	}
	if firstErr != nil {
		return mSearch{peak: math.Inf(1), evals: out.evals}, firstErr
	}
	if out.truncated && out.m == 0 {
		return mSearch{peak: math.Inf(1), evals: out.evals, truncated: true},
			deadlineErr(p.ctxErr())
	}
	return out, nil
}

// withRH returns a copy of specs with core j's high-mode ratio replaced.
// The allocating form, for call sites without per-worker scratch.
func withRH(specs []coreSpec, j int, rh float64) []coreSpec {
	trial := append([]coreSpec(nil), specs...)
	trial[j].RH = rh
	return trial
}
