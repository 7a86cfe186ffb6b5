package thermal

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"thermosc/internal/power"
)

// Propagator is a concurrency-safe cache of the per-interval operators of
// the closed-form transient solution (paper eq. (3)). Every evaluation of
// a periodic schedule steps through its state intervals as
//
//	T(t+Δt) = e^{A·Δt}·T(t) + (I − e^{A·Δt})·T∞(v)
//
// and both operators depend only on the interval, not on the state: T∞(v)
// on the mode vector v, e^{A·Δt} on the length Δt. The solver's inner
// loops (the AO m-search and the TPT ratio adjustment, Algorithm 2)
// re-evaluate thousands of cycles whose intervals are drawn from a small
// quantized set — the high-ratio grid spaced t_unit apart — so both maps
// hit their caches almost always after the first evaluation.
//
// Cached values are produced by exactly the code paths Model.SteadyState
// and Symmetrizable.StepVec would run, so a cache hit is bit-identical to
// a recomputation; caching never perturbs solver decisions.
//
// The exponential factors are stored in the eigenbasis of A (diagonal
// vectors exp(λ·Δt), see mat.Symmetrizable), where the semigroup identity
// e^{A·(s+t)} = e^{A·s}·e^{A·t} reduces to an elementwise product — the
// composed peak path (sim.EvalArena.ComposedEndPeak) folds a whole cycle
// that way.
//
// Each map holds at most propagatorCap entries: one that is full is
// cleared before its next insert. A server keeps one propagator per
// platform for the life of the process, and every distinct threshold it
// solves adds lengths and mode vectors, so an unbounded map would grow
// with traffic. A value handed out before a clear stays valid (entries
// are never written after insert), and a miss after it recomputes the
// same bits, so the bound never perturbs a plan.
type Propagator struct {
	md *Model

	mu   sync.RWMutex
	tinf map[string][]float64  // mode-vector key → T∞ (treat as read-only)
	teig map[string][]float64  // mode-vector key → W⁻¹·T∞ (composed path)
	exps map[float64][]float64 // Δt → exp(λ·Δt) factors (treat as read-only)

	steadyHits, steadyMisses atomic.Int64
	expHits, expMisses       atomic.Int64
}

// propagatorCap bounds each of a Propagator's maps; an entry is one
// dim-length vector. A cold AO or PCO solve on a 9–18-core platform
// inserts at most a few hundred mode vectors and about 4,100–4,400
// interval lengths, so the length map may clear once within one solve; a
// miss costs one O(dim) ExpLambda.
const propagatorCap = 4096

// PropagatorStats is a snapshot of the cache-hit accounting.
type PropagatorStats struct {
	SteadyHits, SteadyMisses int64 // T∞ lookups by mode vector
	ExpHits, ExpMisses       int64 // exp(λ·Δt) lookups by interval length
}

// NewPropagator returns an empty cache bound to md. The zero-value maps
// are sized for a typical AO run (hundreds of distinct entries).
func NewPropagator(md *Model) *Propagator {
	return &Propagator{
		md:   md,
		tinf: make(map[string][]float64, 256),
		teig: make(map[string][]float64, 256),
		exps: make(map[float64][]float64, 256),
	}
}

// Model returns the thermal model the cache is bound to.
func (p *Propagator) Model() *Model { return p.md }

// modeKey canonicalizes a mode vector into a byte key: the voltage bits
// plus an off flag per core. Static power depends only on the voltage and
// on whether the core is off (power.Model.Static), so two mode vectors
// with equal keys have identical Ψ and hence identical T∞.
func modeKey(modes []power.Mode) []byte {
	buf := make([]byte, 9*len(modes))
	for i, m := range modes {
		binary.LittleEndian.PutUint64(buf[9*i:], math.Float64bits(m.Voltage))
		if m.IsOff() {
			buf[9*i+8] = 1
		}
	}
	return buf
}

// ModeKeySize returns the byte length of the canonical key of an n-core
// mode vector, for callers sizing reusable key buffers.
func ModeKeySize(n int) int { return 9 * n }

// ModeKeyInto writes the canonical mode-vector key into buf (which must
// have length ModeKeySize(len(modes))) and returns it. Identical bytes to
// the internal key, so keyed lookups hit the same cache entries.
func ModeKeyInto(buf []byte, modes []power.Mode) []byte {
	for i, m := range modes {
		binary.LittleEndian.PutUint64(buf[9*i:], math.Float64bits(m.Voltage))
		if m.IsOff() {
			buf[9*i+8] = 1
		} else {
			buf[9*i+8] = 0
		}
	}
	return buf
}

// SteadyStateKeyed is SteadyState with the mode key precomputed into a
// caller-owned buffer (ModeKeyInto): a cache hit performs no allocation,
// which is what the per-solve arenas rely on. On a miss it falls through
// to SteadyState, which computes (and stores under) its own key copy — the
// caller's buffer never escapes into the cache.
func (p *Propagator) SteadyStateKeyed(key []byte, modes []power.Mode) []float64 {
	p.mu.RLock()
	v, ok := p.tinf[string(key)]
	p.mu.RUnlock()
	if ok {
		p.steadyHits.Add(1)
		return v
	}
	return p.SteadyState(modes)
}

// SteadyEigenKeyed is SteadyEigen with a precomputed key; allocation-free
// on a hit, like SteadyStateKeyed.
func (p *Propagator) SteadyEigenKeyed(key []byte, modes []power.Mode) []float64 {
	p.mu.RLock()
	v, ok := p.teig[string(key)]
	p.mu.RUnlock()
	if ok {
		return v
	}
	return p.SteadyEigen(modes)
}

// SteadyState returns T∞(modes), computing it once per distinct mode
// vector. The returned slice is shared with the cache: callers must treat
// it as read-only.
func (p *Propagator) SteadyState(modes []power.Mode) []float64 {
	key := modeKey(modes)
	p.mu.RLock()
	v, ok := p.tinf[string(key)]
	p.mu.RUnlock()
	if ok {
		p.steadyHits.Add(1)
		return v
	}
	p.steadyMisses.Add(1)
	tinf := p.md.SteadyState(modes)
	p.mu.Lock()
	if prev, ok := p.tinf[string(key)]; ok {
		tinf = prev // a concurrent miss computed the same bits; share one
	} else {
		if len(p.tinf) >= propagatorCap {
			clear(p.tinf)
		}
		p.tinf[string(key)] = tinf
	}
	p.mu.Unlock()
	return tinf
}

// SteadyEigen returns W⁻¹·T∞(modes) — the steady-state target expressed
// in the eigenbasis of A, which is what the composed (semigroup) peak
// evaluation consumes. Read-only, like SteadyState. Dense backend only.
func (p *Propagator) SteadyEigen(modes []power.Mode) []float64 {
	if p.md.SparsePath() {
		panic("thermal: SteadyEigen on the sparse backend (no eigenbasis)")
	}
	key := modeKey(modes)
	p.mu.RLock()
	v, ok := p.teig[string(key)]
	p.mu.RUnlock()
	if ok {
		return v
	}
	w := p.md.Eigen().Winv.MulVec(p.SteadyState(modes))
	p.mu.Lock()
	if prev, ok := p.teig[string(key)]; ok {
		w = prev
	} else {
		if len(p.teig) >= propagatorCap {
			clear(p.teig)
		}
		p.teig[string(key)] = w
	}
	p.mu.Unlock()
	return w
}

// ExpFactors returns the eigenbasis factors exp(λ·dt) of e^{A·dt},
// computing them once per distinct dt. The returned slice is shared with
// the cache: callers must treat it as read-only. Dense backend only —
// the sparse path steps through Model.StepSparseTo instead.
func (p *Propagator) ExpFactors(dt float64) []float64 {
	if p.md.SparsePath() {
		panic("thermal: ExpFactors on the sparse backend (no eigenbasis)")
	}
	p.mu.RLock()
	v, ok := p.exps[dt]
	p.mu.RUnlock()
	if ok {
		p.expHits.Add(1)
		return v
	}
	p.expMisses.Add(1)
	expL := p.md.Eigen().ExpLambda(dt)
	p.mu.Lock()
	if prev, ok := p.exps[dt]; ok {
		expL = prev
	} else {
		if len(p.exps) >= propagatorCap {
			clear(p.exps)
		}
		p.exps[dt] = expL
	}
	p.mu.Unlock()
	return expL
}

// Step advances the state by dt toward the steady-state target tInf using
// cached exponential factors. Bit-identical to Model.StepToward. On the
// sparse backend it falls through to the (uncached) exponential action —
// the T∞ cache still applies, the e^{A·dt} factors do not.
func (p *Propagator) Step(dt float64, x, tInf []float64) []float64 {
	p.md.checkState(x)
	if p.md.SparsePath() {
		return p.md.StepToward(dt, x, tInf)
	}
	return p.md.eig.StepVecExp(p.ExpFactors(dt), x, tInf)
}

// Stats returns a snapshot of the cache-hit accounting.
func (p *Propagator) Stats() PropagatorStats {
	return PropagatorStats{
		SteadyHits:   p.steadyHits.Load(),
		SteadyMisses: p.steadyMisses.Load(),
		ExpHits:      p.expHits.Load(),
		ExpMisses:    p.expMisses.Load(),
	}
}
