package sim

import (
	"fmt"
	"math"
	"sort"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

// EvalArena is the per-solve scratch memory of the solvers' inner loops:
// one arena per worker goroutine holds every buffer a cycle evaluation
// needs — the merged state-interval structure of the canonical AO
// two-mode cycle, precomputed propagator keys, and the state/eigenmode
// work vectors — so the hot paths (the m-search screening sweep, the TPT
// and refill trial scans, and the dense verification) run without
// allocating.
//
// Evaluation results are bit-identical to the schedule-based path: the
// interval construction mirrors schedule.TwoMode → New → Intervals
// operation for operation (same clamping, the same RelTol breakpoint
// merge, the same midpoint mode resolution), and the numeric kernels are
// the *To variants of exactly the primitives NewStableCached and
// PeakDense call, with shared-cache operator lookups hitting the same
// thermal.Propagator entries. The one intentionally non-identical
// evaluator is ComposedEndPeak, the screening path (≲1e-8 K; see its
// documentation).
//
// Arenas are NOT safe for concurrent use; acquire one per worker from
// Engine.AcquireArena and return it with Engine.ReleaseArena, which
// poisons every owned buffer with NaN so a retained reference fails loudly
// instead of silently corrupting a later solve.
type EvalArena struct {
	eng  *Engine
	md   *thermal.Model
	n    int // cores
	dim  int // thermal nodes
	maxZ int // interval capacity (2n+2 covers shifted two-mode cycles)

	// Cycle structure (SetTwoMode or SetSchedule). Per core at most two
	// normalized segments (SetTwoMode only); per interval a mode vector,
	// its propagator key, and lazily-resolved shared-cache operators.
	period  float64
	z       int
	segLen  [][2]float64
	segMode [][2]power.Mode
	segCnt  []int
	bps     []float64
	ivLen   []float64
	ivModes [][]power.Mode
	keys    [][]byte
	tinfs   [][]float64 // shared propagator slices — never poisoned
	expLs   [][]float64 // shared propagator slices — never poisoned

	// Numeric scratch, all arena-owned.
	state  []float64 // dim
	start  []float64 // dim
	diff   []float64 // dim
	ymode  []float64 // dim
	sample []float64 // dim
	etot   []float64 // dim
	cacc   []float64 // dim
	expBuf []float64 // dim
	temps  []float64 // n

	// spWS is the sparse-backend stepping and stable-solve workspace
	// (nil on the dense backend).
	spWS *sparseScratch

	released bool
}

func newEvalArena(e *Engine) *EvalArena {
	md := e.md
	n, dim := md.NumCores(), md.NumNodes()
	maxZ := 2*n + 2
	a := &EvalArena{eng: e, md: md, n: n, dim: dim, maxZ: maxZ}
	a.segLen = make([][2]float64, n)
	a.segMode = make([][2]power.Mode, n)
	a.segCnt = make([]int, n)
	a.bps = make([]float64, 0, n+2)
	a.ivLen = make([]float64, maxZ)
	modesBuf := make([]power.Mode, maxZ*n)
	a.ivModes = make([][]power.Mode, maxZ)
	for q := range a.ivModes {
		a.ivModes[q] = modesBuf[q*n : (q+1)*n]
	}
	ks := thermal.ModeKeySize(n)
	keysBuf := make([]byte, maxZ*ks)
	a.keys = make([][]byte, maxZ)
	for q := range a.keys {
		a.keys[q] = keysBuf[q*ks : (q+1)*ks]
	}
	a.tinfs = make([][]float64, maxZ)
	a.expLs = make([][]float64, maxZ)
	a.state = make([]float64, dim)
	a.start = make([]float64, dim)
	a.diff = make([]float64, dim)
	a.ymode = make([]float64, dim)
	a.sample = make([]float64, dim)
	a.etot = make([]float64, dim)
	a.cacc = make([]float64, dim)
	a.expBuf = make([]float64, dim)
	a.temps = make([]float64, n)
	if md.SparsePath() {
		a.spWS = newSparseScratch(dim)
	}
	return a
}

// AcquireArena returns a per-worker evaluation arena drawn from the
// engine's pool (allocating one on first use).
func (e *Engine) AcquireArena() *EvalArena {
	a := e.arenas.Get().(*EvalArena)
	a.released = false
	return a
}

// ReleaseArena poisons every arena-owned buffer with NaN and returns the
// arena to the engine's pool. Any evaluation through a stale reference
// after release panics or yields NaN temperatures — never a silently
// plausible plan built on another solve's memory.
func (e *Engine) ReleaseArena(a *EvalArena) {
	if a.eng != e {
		panic("sim: EvalArena released to a foreign engine")
	}
	a.poison()
	e.arenas.Put(a)
}

func (a *EvalArena) poison() {
	a.released = true
	nan := math.NaN()
	bufs := [][]float64{
		a.state, a.start, a.diff, a.ymode, a.sample,
		a.etot, a.cacc, a.expBuf, a.temps, a.ivLen,
	}
	if a.spWS != nil {
		bufs = append(bufs, a.spWS.r, a.spWS.z, a.spWS.p, a.spWS.q, a.spWS.kx)
	}
	for _, buf := range bufs {
		for i := range buf {
			buf[i] = nan
		}
	}
	for i := range a.segLen {
		a.segLen[i][0], a.segLen[i][1] = nan, nan
		a.segCnt[i] = 0
	}
	for q := range a.tinfs {
		a.tinfs[q] = nil // cache-shared slices are not ours to poison
		a.expLs[q] = nil
	}
	a.period = nan
	a.z = 0
}

func (a *EvalArena) checkLive() {
	if a.released {
		panic("sim: use of a released EvalArena")
	}
}

// SetTwoMode assembles the merged state-interval view of the canonical AO
// low-then-high cycle directly in arena storage — the allocation-free
// equivalent of schedule.TwoMode followed by Intervals, mirrored operation
// for operation so every derived float (period, breakpoints, interval
// lengths, midpoint mode resolution) is bit-identical to the Schedule
// path. It (or SetSchedule) must be called before the evaluation methods.
func (a *EvalArena) SetTwoMode(tc float64, specs []schedule.TwoModeSpec) error {
	a.checkLive()
	if len(specs) != a.n {
		return fmt.Errorf("sim: %d two-mode specs for %d cores", len(specs), a.n)
	}
	if tc <= 0 {
		return fmt.Errorf("sim: non-positive cycle length %v", tc)
	}
	// Per-core normalized segments (TwoMode's clamp + normalize's
	// zero-drop and equal-mode merge).
	for i, sp := range specs {
		if sp.HighRatio < -schedule.RelTol || sp.HighRatio > 1+schedule.RelTol {
			return fmt.Errorf("sim: core %d HighRatio %v outside [0,1]", i, sp.HighRatio)
		}
		r := math.Min(1, math.Max(0, sp.HighRatio))
		switch {
		case r == 0:
			a.segCnt[i] = 1
			a.segLen[i][0] = tc
			a.segMode[i][0] = sp.Low
		case r == 1:
			a.segCnt[i] = 1
			a.segLen[i][0] = tc
			a.segMode[i][0] = sp.High
		default:
			l1, l2 := (1-r)*tc, r*tc
			switch {
			case sp.Low == sp.High:
				// normalize merges adjacent equal modes.
				a.segCnt[i] = 1
				a.segLen[i][0] = l1 + l2
				a.segMode[i][0] = sp.Low
			case l1 <= 0:
				// normalize drops zero-length segments.
				a.segCnt[i] = 1
				a.segLen[i][0] = l2
				a.segMode[i][0] = sp.High
			case l2 <= 0:
				a.segCnt[i] = 1
				a.segLen[i][0] = l1
				a.segMode[i][0] = sp.Low
			default:
				a.segCnt[i] = 2
				a.segLen[i][0], a.segLen[i][1] = l1, l2
				a.segMode[i][0], a.segMode[i][1] = sp.Low, sp.High
			}
		}
	}
	// schedule.New derives the period from core 0's pre-normalization
	// segment sum — (1−r)·tc + r·tc for an oscillating core 0, which can
	// differ from tc in the last ulp, and everything downstream keys off
	// that exact value.
	r0 := math.Min(1, math.Max(0, specs[0].HighRatio))
	if r0 == 0 || r0 == 1 {
		a.period = tc
	} else {
		a.period = (1-r0)*tc + r0*tc
	}

	// Breakpoints: 0, the period, and every interior segment boundary;
	// sorted, RelTol-merged, final point snapped to the period (exactly
	// Schedule.Intervals).
	eps := schedule.RelTol * math.Max(1, a.period)
	pts := append(a.bps[:0], 0, a.period)
	for i := 0; i < a.n; i++ {
		var acc float64
		for s := 0; s < a.segCnt[i]-1; s++ {
			acc += a.segLen[i][s]
			pts = append(pts, acc)
		}
	}
	sort.Float64s(pts)
	merged := pts[:1]
	for _, p := range pts[1:] {
		if p-merged[len(merged)-1] > eps {
			merged = append(merged, p)
		}
	}
	merged[len(merged)-1] = a.period
	a.bps = pts[:0]

	a.z = len(merged) - 1
	for q := 0; q < a.z; q++ {
		mid := 0.5 * (merged[q] + merged[q+1])
		a.ivLen[q] = merged[q+1] - merged[q]
		modes := a.ivModes[q]
		for i := 0; i < a.n; i++ {
			modes[i] = a.modeAt(i, mid)
		}
		thermal.ModeKeyInto(a.keys[q], modes)
		a.tinfs[q] = nil
		a.expLs[q] = nil
	}
	return nil
}

// SetSchedule loads the merged state intervals of an arbitrary schedule
// (PCO's phase-shifted candidates) into the arena, for StableDensePeak to
// evaluate without the per-step state allocations of NewStableCached +
// PeakDense. Shifted two-mode cycles have at most 2n+1 intervals; a
// schedule beyond the arena's 2n+2 capacity is refused.
func (a *EvalArena) SetSchedule(sched *schedule.Schedule) error {
	a.checkLive()
	ivs := sched.Intervals()
	if len(ivs) > a.maxZ {
		return fmt.Errorf("sim: %d schedule intervals exceed the arena capacity %d", len(ivs), a.maxZ)
	}
	if sched.NumCores() != a.n {
		return fmt.Errorf("sim: %d-core schedule for %d cores", sched.NumCores(), a.n)
	}
	a.period = sched.Period()
	a.z = len(ivs)
	for q, iv := range ivs {
		a.ivLen[q] = iv.Length
		copy(a.ivModes[q], iv.Modes)
		thermal.ModeKeyInto(a.keys[q], iv.Modes)
		a.tinfs[q] = nil
		a.expLs[q] = nil
	}
	return nil
}

// modeAt mirrors Schedule.ModeAt for 0 < t < period (no wrap needed; the
// interval midpoints are strictly interior).
func (a *EvalArena) modeAt(core int, t float64) power.Mode {
	var acc float64
	cnt := a.segCnt[core]
	for s := 0; s < cnt; s++ {
		acc += a.segLen[core][s]
		if t < acc {
			return a.segMode[core][s]
		}
	}
	return a.segMode[core][cnt-1]
}

// checkCache validates that cache belongs to this arena's engine and
// matches the assembled cycle period, mirroring NewStableCached's guards.
func (a *EvalArena) checkCache(cache *PeriodCache) error {
	if cache.md != a.md {
		return fmt.Errorf("sim: PeriodCache built for a different model")
	}
	if cache.prop != a.eng.prop {
		return fmt.Errorf("sim: EvalArena requires a cache from its own engine")
	}
	if d := cache.tp - a.period; d > 1e-9*a.period || d < -1e-9*a.period {
		return fmt.Errorf("sim: PeriodCache period %v != cycle period %v", cache.tp, a.period)
	}
	return nil
}

// resolveOps fills the per-interval steady-state targets and exponential
// factors from the shared propagator cache (allocation-free on hits). The
// sparse backend has no eigenbasis factors — only the T∞ cache applies;
// stepping goes through the exponential action instead.
func (a *EvalArena) resolveOps(prop *thermal.Propagator) {
	sparse := a.md.SparsePath()
	for q := 0; q < a.z; q++ {
		if a.tinfs[q] == nil {
			a.tinfs[q] = prop.SteadyStateKeyed(a.keys[q], a.ivModes[q])
		}
		if !sparse && a.expLs[q] == nil {
			a.expLs[q] = prop.ExpFactors(a.ivLen[q])
		}
	}
}

// stablePasses runs the two stable-status passes of NewStableCached over
// the assembled cycle: the zero-start propagation, the (I−K)⁻¹ solve into
// a.start, and the stable walk leaving the end-of-period state in a.state.
// Bit-identical to the Schedule-based solve on both backends (the sparse
// branch runs exactly the kernels NewStableCached reaches through
// Propagator.Step and PeriodCache.StableStart, in the same order).
func (a *EvalArena) stablePasses(cache *PeriodCache) error {
	a.resolveOps(cache.prop)
	if a.md.SparsePath() {
		return a.stablePassesSparse(cache)
	}
	eig := a.md.Eigen()
	state := a.state
	for i := range state {
		state[i] = 0
	}
	for q := 0; q < a.z; q++ {
		eig.StepVecExpTo(state, a.diff, a.ymode, a.expLs[q], state, a.tinfs[q])
	}
	if _, err := cache.lu.SolveVecTo(a.start, state); err != nil {
		return err
	}
	copy(state, a.start)
	for q := 0; q < a.z; q++ {
		eig.StepVecExpTo(state, a.diff, a.ymode, a.expLs[q], state, a.tinfs[q])
	}
	return nil
}

// stablePassesSparse is the sparse-backend body of stablePasses: in-place
// exponential-action stepping plus the PCG stable solve, all through the
// arena's sparseScratch.
func (a *EvalArena) stablePassesSparse(cache *PeriodCache) error {
	state := a.state
	for i := range state {
		state[i] = 0
	}
	for q := 0; q < a.z; q++ {
		a.md.StepSparseTo(state, a.diff, a.ivLen[q], state, a.tinfs[q], &a.spWS.exp)
	}
	if err := cache.stableStartSparseTo(a.start, state, a.spWS); err != nil {
		return err
	}
	copy(state, a.start)
	for q := 0; q < a.z; q++ {
		a.md.StepSparseTo(state, a.diff, a.ivLen[q], state, a.tinfs[q], &a.spWS.exp)
	}
	return nil
}

// StableEndTempsInto evaluates the stable end-of-period core temperature
// rises of the assembled cycle into dst (length NumCores) — the Theorem-1
// peak evaluation of the AO inner loops, bit-identical to NewStableCached
// + CoreTemps(End(last)).
func (a *EvalArena) StableEndTempsInto(dst []float64, cache *PeriodCache) error {
	a.checkLive()
	if err := a.checkCache(cache); err != nil {
		return err
	}
	if err := a.stablePasses(cache); err != nil {
		return err
	}
	copy(dst, a.state[:a.n])
	return nil
}

// StableDensePeak evaluates the dense-sampled stable peak of the assembled
// cycle — bit-identical to NewStableCached + PeakDense(samples).
func (a *EvalArena) StableDensePeak(cache *PeriodCache, samples int) (float64, error) {
	a.checkLive()
	if err := a.checkCache(cache); err != nil {
		return 0, err
	}
	if err := a.stablePasses(cache); err != nil {
		return 0, err
	}
	return a.densePeakScan(cache.prop, samples), nil
}

// densePeakScan replicates Stable.PeakDense over the arena cycle, assuming
// stablePasses just ran (a.start holds the stable start). It re-walks the
// period, sampling each interval at `samples` interior points plus its end.
func (a *EvalArena) densePeakScan(prop *thermal.Propagator, samples int) float64 {
	if samples < 1 {
		samples = 1
	}
	if a.md.SparsePath() {
		return a.densePeakScanSparse(samples)
	}
	eig := a.md.Eigen()
	cur := a.state
	copy(cur, a.start)
	peak, _ := mat.VecMax(a.start[:a.n])
	for q := 0; q < a.z; q++ {
		for k := 1; k <= samples; k++ {
			frac := float64(k) / float64(samples)
			expS := prop.ExpFactors(a.ivLen[q] * frac)
			eig.StepVecExpTo(a.sample, a.diff, a.ymode, expS, cur, a.tinfs[q])
			if p, _ := mat.VecMax(a.sample[:a.n]); p > peak {
				peak = p
			}
		}
		eig.StepVecExpTo(cur, a.diff, a.ymode, a.expLs[q], cur, a.tinfs[q])
	}
	return peak
}

// densePeakScanSparse mirrors densePeakScan through the exponential
// action: the same fractional sample offsets, the same end-of-interval
// walk, the same values as Stable.PeakDense on the sparse backend.
func (a *EvalArena) densePeakScanSparse(samples int) float64 {
	cur := a.state
	copy(cur, a.start)
	peak, _ := mat.VecMax(a.start[:a.n])
	for q := 0; q < a.z; q++ {
		for k := 1; k <= samples; k++ {
			frac := float64(k) / float64(samples)
			a.md.StepSparseTo(a.sample, a.diff, a.ivLen[q]*frac, cur, a.tinfs[q], &a.spWS.exp)
			if p, _ := mat.VecMax(a.sample[:a.n]); p > peak {
				peak = p
			}
		}
		a.md.StepSparseTo(cur, a.diff, a.ivLen[q], cur, a.tinfs[q], &a.spWS.exp)
	}
	return peak
}

// ComposedEndPeak evaluates the Theorem-1 peak of the assembled cycle
// entirely in the eigenbasis — the screening evaluator of the incremental
// m-search. Each state interval is a diagonal affine map
//
//	y ← E_q ⊙ y + (1 − E_q) ⊙ w_q,   E_q = exp(λ·l_q),  w_q = W⁻¹·T∞(v_q),
//
// the full-period propagator composes by the semigroup identity
// E = ⊙_q E_q, and the stable start is the diagonal solve
// y*_i = c_i/(1 − E_i) — no dense LU, no O(dim²) steps. One evaluation
// costs O(z·dim) plus one n×dim core-temperature extraction, versus
// O(z·dim²) + an O(dim²) LU solve for StableEndTempsInto.
//
// The result agrees with the classic StepUpPeak far below the solver's
// 1e-6 K feasibility tolerance (≲1e-8 K; the diagonal solve of the
// slowest mode is the conditioning bottleneck) but is NOT bit-identical —
// the association order of the arithmetic differs — so the m-search only
// screens with it and confirms on the classic path. The exponential
// factors are computed into arena scratch so screening sweeps do not
// flood the shared length cache with never-again-seen candidate lengths.
func (a *EvalArena) ComposedEndPeak() (float64, error) {
	a.checkLive()
	if a.md.SparsePath() {
		// No eigenbasis to compose in. The solver's sparse scale policy
		// screens with exact stable evaluations instead (solver/search.go).
		return 0, fmt.Errorf("sim: ComposedEndPeak requires the dense eigenbasis backend")
	}
	eig := a.md.Eigen()
	prop := a.eng.prop
	etot, c := a.etot, a.cacc
	for i := range etot {
		etot[i] = 1
		c[i] = 0
	}
	for q := 0; q < a.z; q++ {
		eq := eig.ExpLambdaTo(a.expBuf, a.ivLen[q])
		wq := prop.SteadyEigenKeyed(a.keys[q], a.ivModes[q])
		for i := 0; i < a.dim; i++ {
			c[i] = eq[i]*c[i] + (1-eq[i])*wq[i]
			etot[i] *= eq[i]
		}
	}
	for i := 0; i < a.dim; i++ {
		d := 1 - etot[i]
		if d <= 0 {
			// The classic path's (I−K) factorization is singular in the
			// same regime; fail the candidate rather than divide by zero.
			return 0, fmt.Errorf("sim: composed propagator singular for cycle period %v", a.period)
		}
		c[i] /= d
	}
	a.eng.coreW.MulVecTo(a.temps, c)
	peak, _ := mat.VecMax(a.temps)
	return peak, nil
}
