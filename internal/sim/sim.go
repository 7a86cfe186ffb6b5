// Package sim evaluates the thermal behaviour of periodic multi-core
// schedules on a compact RC model: exact piecewise-exponential transients
// (paper eq. (3)), the thermally stable status (eq. (4)), and peak
// temperature identification — the O(z) end-of-period evaluation that
// Theorem 1 licenses for step-up schedules, and a dense-sampling search
// for arbitrary schedules. The tests check the closed-form solutions
// against a classic RK4 integrator (standing in for HotSpot transient
// simulation).
package sim

import (
	"errors"
	"fmt"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

// PeriodCache holds the period-dependent operators of the stable-status
// equation — on the dense backend K = e^{A·t_p} and an LU factorization
// of (I−K), so repeated stable solves over schedules with the same period
// (the AO inner loops) share the O(n³) setup. On the sparse backend
// neither K nor a factorization of (I−K) is ever formed: StableStart runs
// the preconditioned CG of sparse.go, and the cache only pins the node
// capacitances that define its inner product.
type PeriodCache struct {
	md *thermal.Model
	tp float64
	lu *mat.LU // dense backend; nil on the sparse path
	// cDiag is the C diagonal of the sparse-backend PCG inner product
	// (nil on the dense path).
	cDiag []float64
	// prop, when set, memoizes the per-interval operators (T∞ per mode
	// vector, exp(λ·Δt) per length) across every solve that shares this
	// cache. Cached values are bit-identical to recomputation, so the
	// stable status is unchanged — only cheaper. See thermal.Propagator
	// and Engine.
	prop *thermal.Propagator
}

// NewPeriodCache prepares the stable-status operators for period tp.
func NewPeriodCache(md *thermal.Model, tp float64) (*PeriodCache, error) {
	return newPeriodCacheProp(md, tp, nil)
}

func newPeriodCacheProp(md *thermal.Model, tp float64, prop *thermal.Propagator) (*PeriodCache, error) {
	if tp <= 0 {
		return nil, fmt.Errorf("sim: non-positive period %v", tp)
	}
	if md.SparsePath() {
		return &PeriodCache{md: md, tp: tp, cDiag: md.Capacitances(), prop: prop}, nil
	}
	k := md.Eigen().ExpAt(tp)
	imk := mat.Eye(md.NumNodes()).SubInPlace(k)
	lu, err := mat.Factorize(imk)
	if err != nil {
		return nil, fmt.Errorf("sim: (I−K) singular for period %v: %w", tp, err)
	}
	return &PeriodCache{md: md, tp: tp, lu: lu, prop: prop}, nil
}

// steadyState resolves T∞(modes) through the propagator cache when one is
// attached, and directly otherwise. Either way the result is the exact
// Model.SteadyState output (cache hits are bit-identical).
func (c *PeriodCache) steadyState(modes []power.Mode) []float64 {
	if c.prop != nil {
		return c.prop.SteadyState(modes)
	}
	return c.md.SteadyState(modes)
}

// StableStart maps the end-of-period state reached from the all-ambient
// start (T(0)=0) to the start-of-period state in the thermally stable
// status: T* = (I−K)⁻¹·T(t_p) — the closed form of paper eq. (4) at q = z.
// Dense backend: one LU solve. Sparse backend: the preconditioned CG of
// sparse.go (allocating its own scratch; the arenas reuse theirs).
func (c *PeriodCache) StableStart(endFromZero []float64) ([]float64, error) {
	if c.lu == nil {
		dst := make([]float64, len(endFromZero))
		if err := c.stableStartSparseTo(dst, endFromZero, newSparseScratch(c.md.NumNodes())); err != nil {
			return nil, err
		}
		return dst, nil
	}
	return c.lu.SolveVec(endFromZero)
}

// Stable is the thermally-stable-status view of one periodic schedule.
type Stable struct {
	md    *thermal.Model
	prop  *thermal.Propagator // optional operator cache (from PeriodCache)
	sched *schedule.Schedule
	ivs   []schedule.Interval
	tinfs [][]float64 // per-interval steady-state targets T∞(v_q)
	start []float64   // stable state at the start of the period
	ends  [][]float64 // stable state at the end of every interval
}

// step advances by dt toward tInf, through the propagator cache when one
// is attached. Both paths produce bit-identical states.
func (s *Stable) step(dt float64, x, tInf []float64) []float64 {
	if s.prop != nil {
		return s.prop.Step(dt, x, tInf)
	}
	return s.md.StepToward(dt, x, tInf)
}

// NewStable solves for the stable status of sched on md.
func NewStable(md *thermal.Model, sched *schedule.Schedule) (*Stable, error) {
	cache, err := NewPeriodCache(md, sched.Period())
	if err != nil {
		return nil, err
	}
	return NewStableCached(md, sched, cache)
}

// NewStableCached is NewStable reusing a PeriodCache whose period must
// match the schedule's.
func NewStableCached(md *thermal.Model, sched *schedule.Schedule, cache *PeriodCache) (*Stable, error) {
	if cache.md != md {
		return nil, errors.New("sim: PeriodCache built for a different model")
	}
	if d := cache.tp - sched.Period(); d > 1e-9*sched.Period() || d < -1e-9*sched.Period() {
		return nil, fmt.Errorf("sim: PeriodCache period %v != schedule period %v", cache.tp, sched.Period())
	}
	st := &Stable{md: md, prop: cache.prop, sched: sched, ivs: sched.Intervals()}
	st.tinfs = make([][]float64, len(st.ivs))
	state := md.ZeroState()
	for q, iv := range st.ivs {
		st.tinfs[q] = cache.steadyState(iv.Modes)
		state = st.step(iv.Length, state, st.tinfs[q])
	}
	start, err := cache.StableStart(state)
	if err != nil {
		return nil, err
	}
	st.start = start
	st.ends = make([][]float64, len(st.ivs))
	cur := start
	for q, iv := range st.ivs {
		cur = st.step(iv.Length, cur, st.tinfs[q])
		st.ends[q] = cur
	}
	return st, nil
}

// Start returns the stable state at the start of the period (copy).
func (s *Stable) Start() []float64 { return mat.VecClone(s.start) }

// End returns the stable state at the end of interval q (copy).
func (s *Stable) End(q int) []float64 { return mat.VecClone(s.ends[q]) }

// NumIntervals returns the number of merged state intervals.
func (s *Stable) NumIntervals() int { return len(s.ivs) }

// At returns the stable-status state at offset t into the period.
func (s *Stable) At(t float64) []float64 {
	if t <= 0 {
		return s.Start()
	}
	var acc float64
	cur := s.start
	for q, iv := range s.ivs {
		if t <= acc+iv.Length || q == len(s.ivs)-1 {
			return s.step(t-acc, cur, s.tinfs[q])
		}
		cur = s.ends[q]
		acc += iv.Length
	}
	return mat.VecClone(cur) // unreachable
}

// PeakEndOfPeriod returns the hottest core temperature rise at the end of
// the period in the stable status, and which core attains it.
//
// By the paper's Theorem 1 this is the peak temperature of a step-up
// schedule. Reproduction finding (see EXPERIMENTS.md): the statement is
// exact when every core's voltage strictly increases over the period, but
// when some core holds a constant mode while others step up, that core's
// temperature derivative is continuous across the period wrap and it keeps
// rising briefly past the period end — the true peak then exceeds this
// value by a small margin (≤ ~0.02 K in the repository calibrations).
// Use PeakDense for a sampling-verified peak; AO verifies its final
// schedules densely for exactly this reason.
func (s *Stable) PeakEndOfPeriod() (peak float64, core int) {
	temps := s.md.CoreTemps(s.ends[len(s.ends)-1])
	return mat.VecMax(temps)
}

// PeakDense searches for the peak core temperature anywhere in the stable
// period by sampling each state interval at `samples` interior points plus
// its boundaries. It returns the peak rise, the core attaining it, and the
// period offset. Use for arbitrary (non-step-up) schedules such as PCO's
// phase-shifted candidates.
func (s *Stable) PeakDense(samples int) (peak float64, core int, at float64) {
	if samples < 1 {
		samples = 1
	}
	peak, core = mat.VecMax(s.md.CoreTemps(s.start))
	at = 0
	var acc float64
	cur := s.start
	for q, iv := range s.ivs {
		for k := 1; k <= samples; k++ {
			frac := float64(k) / float64(samples)
			st := s.step(iv.Length*frac, cur, s.tinfs[q])
			if p, c := mat.VecMax(s.md.CoreTemps(st)); p > peak {
				peak, core, at = p, c, acc+iv.Length*frac
			}
		}
		cur = s.ends[q]
		acc += iv.Length
	}
	return peak, core, at
}

// StepUpPeak computes the peak temperature of a step-up schedule in O(z)
// via Theorem 1, using (and validating against) the provided cache.
func StepUpPeak(md *thermal.Model, sched *schedule.Schedule, cache *PeriodCache) (float64, int, error) {
	st, err := NewStableCached(md, sched, cache)
	if err != nil {
		return 0, 0, err
	}
	p, c := st.PeakEndOfPeriod()
	return p, c, nil
}
