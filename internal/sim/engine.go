package sim

import (
	"sync"

	"thermosc/internal/mat"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

// Engine is the shared peak-temperature evaluation context of the
// solvers' inner loops. It bundles one thermal model with
//
//   - a thermal.Propagator memoizing the per-interval operators (T∞ per
//     mode vector, eigenbasis exponential factors per interval length),
//   - a pool of PeriodCache stable-status operators keyed by the exact
//     period value, so the AO m-search builds each candidate period's
//     O(dim³) operators once — across both AO seeds, the TPT adjustment,
//     and PCO's continuation.
//
// All methods are safe for concurrent use; the parallel m-search and
// trial scans in internal/solver share one Engine across their workers.
// Everything the Engine returns is bit-identical to the uncached
// NewStable/NewPeriodCache path, so adopting it never changes a plan.
type Engine struct {
	md   *thermal.Model
	prop *thermal.Propagator

	mu      sync.Mutex
	periods map[float64]*periodEntry

	coreW *mat.Dense // core-node rows of W, for composed core temps (nil on the sparse backend)

	// arenas pools per-solve evaluation scratch (see EvalArena): acquired
	// per worker, poisoned with NaN on release so stale references fail
	// loudly instead of leaking one solve's state into another.
	arenas sync.Pool
}

// periodEntry builds its PeriodCache at most once; the sync.Once keeps
// the O(dim³) construction outside the Engine lock so concurrent m-search
// workers building different periods do not serialize.
type periodEntry struct {
	once sync.Once
	pc   *PeriodCache
	err  error
}

// NewEngine returns an evaluation engine with empty caches bound to md.
func NewEngine(md *thermal.Model) *Engine {
	n, dim := md.NumCores(), md.NumNodes()
	var coreW *mat.Dense
	if eig := md.Eigen(); eig != nil {
		coreW = mat.NewDense(n, dim)
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				coreW.Set(i, j, eig.W.At(i, j))
			}
		}
	}
	e := &Engine{
		md:      md,
		prop:    thermal.NewPropagator(md),
		periods: make(map[float64]*periodEntry, 64),
		coreW:   coreW,
	}
	e.arenas.New = func() any { return newEvalArena(e) }
	return e
}

// Model returns the thermal model the engine evaluates against.
func (e *Engine) Model() *thermal.Model { return e.md }

// Propagator exposes the shared operator cache (for stats and direct
// stepping).
func (e *Engine) Propagator() *thermal.Propagator { return e.prop }

// PeriodCache returns the stable-status operators for period tp, building
// them on first use and memoizing by the exact float64 period value. The
// returned cache carries the engine's propagator, so stable solves
// through it hit the shared operator cache.
func (e *Engine) PeriodCache(tp float64) (*PeriodCache, error) {
	e.mu.Lock()
	ent, ok := e.periods[tp]
	if !ok {
		ent = &periodEntry{}
		e.periods[tp] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.pc, ent.err = newPeriodCacheProp(e.md, tp, e.prop)
	})
	return ent.pc, ent.err
}

// Stable solves for the thermally stable status of sched with all caches
// applied — the drop-in replacement for NewStable in repeated-evaluation
// loops.
func (e *Engine) Stable(sched *schedule.Schedule) (*Stable, error) {
	cache, err := e.PeriodCache(sched.Period())
	if err != nil {
		return nil, err
	}
	return NewStableCached(e.md, sched, cache)
}

// StepUpPeak computes the Theorem-1 peak of a step-up schedule through
// the engine's caches. Identical to the package-level StepUpPeak.
func (e *Engine) StepUpPeak(sched *schedule.Schedule) (float64, int, error) {
	st, err := e.Stable(sched)
	if err != nil {
		return 0, 0, err
	}
	p, c := st.PeakEndOfPeriod()
	return p, c, nil
}
