// Package solver implements the paper's throughput-maximization
// algorithms for temperature-constrained multi-core platforms:
//
//   - Ideal: the continuous-voltage upper-bound assignment obtained by
//     pinning every core's steady-state temperature at Tmax (§V, following
//     Hanumaiah et al.).
//   - LNS: lower-neighboring-speed rounding of the ideal voltages (§III).
//   - EXS: exhaustive search over constant per-core discrete modes
//     (Algorithm 1), plus a pruned branch-and-bound variant that returns
//     the identical optimum orders of magnitude faster.
//   - AO: aligned frequency oscillation (Algorithm 2) — the paper's main
//     contribution.
//   - PCO: phase-conscious oscillation — AO followed by per-core phase
//     interleaving and headroom refill (§VI).
package solver

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/thermal"
)

// Problem is one throughput-maximization instance.
type Problem struct {
	Model  *thermal.Model
	Levels *power.LevelSet
	// TmaxC is the absolute peak temperature threshold in °C.
	TmaxC float64
	// Overhead is the DVFS transition cost (τ). Zero τ means transitions
	// are free and the m-search is capped only by MaxM.
	Overhead power.TransitionOverhead
	// BasePeriod is t_p, the period of the m=1 schedule. Defaults to 20 ms
	// (the paper's motivation-example period).
	BasePeriod float64
	// MaxM caps the oscillation search regardless of the overhead-derived
	// bound. Defaults to 4096.
	MaxM int
	// Workers sets the worker-pool width of AO/PCO's parallel candidate
	// scans: the m-search, the TPT reduction / headroom-refill / dense
	// verification trial evaluations, and PCO's phase search. EXS always
	// searches on the calling goroutine. 0 (the default) uses GOMAXPROCS;
	// 1 forces the fully sequential reference path. Every width produces
	// bit-identical plans after the same Evals — candidates are evaluated
	// independently and reduced in deterministic order (see
	// determinism_test.go). The determinism tests and the ao_search_seq
	// and ao_search_par bench rows set it; the public API leaves it 0.
	Workers int
	// DisallowOff removes the inactive mode (v = f = 0) from the search
	// space. The paper's system model allows inactive cores, so the
	// default (false) permits shutting cores down — which is what makes
	// tight thresholds (e.g. the 9-core platform at Tmax = 50 °C in
	// Fig. 7) feasible at all.
	DisallowOff bool
	// Ctx, when non-nil, cancels the long-running searches: the AO/PCO
	// m-search, TPT/refill/dense adjustment loops, PCO's phase search, and
	// the EXS branch-and-bound all observe it and abort with ctx.Err().
	// A nil Ctx never cancels (context.Background semantics).
	Ctx context.Context
	// Engine, when non-nil, supplies a shared evaluation engine instead of
	// a per-run one, so concurrent solves on the same model reuse one
	// propagator/period-operator pool. Results are bit-identical either
	// way (see sim.Engine); the engine's model must equal Model.
	Engine *sim.Engine
}

// Fixed tuning of the AO/PCO search.
const (
	// tUnitFrac is the TPT adjustment quantum t_unit as a fraction of the
	// oscillation cycle.
	tUnitFrac = 1.0 / 200
	// pcoPhaseSteps is the number of phase offsets PCO tries per core.
	pcoPhaseSteps = 8
	// peakSamples is the per-interval dense-sampling resolution of the
	// peak of a non-step-up schedule (PCO's phase-shifted cycles).
	peakSamples = 24
)

// withDefaults returns a copy of p with zero fields replaced by defaults.
func (p Problem) withDefaults() (Problem, error) {
	if p.Model == nil {
		return p, fmt.Errorf("solver: Problem.Model is nil")
	}
	if p.Levels == nil {
		return p, fmt.Errorf("solver: Problem.Levels is nil")
	}
	if p.TmaxC <= p.Model.Package().AmbientC {
		return p, fmt.Errorf("solver: Tmax %.1f °C not above ambient %.1f °C",
			p.TmaxC, p.Model.Package().AmbientC)
	}
	if p.BasePeriod == 0 {
		p.BasePeriod = 20e-3
	}
	if math.IsNaN(p.BasePeriod) || p.BasePeriod < 1e-9 {
		// A subnormal or otherwise absurd period would starve every
		// downstream quantum (t_unit, δ, τ) of float precision.
		return p, fmt.Errorf("solver: base period %v below 1 ns", p.BasePeriod)
	}
	if p.MaxM == 0 {
		p.MaxM = 4096
	}
	if p.Workers < 0 {
		return p, fmt.Errorf("solver: negative worker count %d", p.Workers)
	}
	if p.Engine != nil && p.Engine.Model() != p.Model {
		return p, fmt.Errorf("solver: Problem.Engine bound to a different model")
	}
	return p, nil
}

// ctxErr reports the cancellation state of the problem's context; a nil
// context never cancels. The search loops call this between candidate
// evaluations, so cancellation latency is one evaluation, not one solve.
func (p Problem) ctxErr() error {
	if p.Ctx == nil {
		return nil
	}
	return p.Ctx.Err()
}

// engine returns the shared evaluation engine, or a fresh one for this
// run when none was provided.
func (p Problem) engine() *sim.Engine {
	if p.Engine != nil {
		return p.Engine
	}
	return sim.NewEngine(p.Model)
}

// workers resolves the effective worker-pool width.
func (p Problem) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// tmaxRise converts the absolute threshold to a rise above ambient.
func (p Problem) tmaxRise() float64 { return p.Model.Rise(p.TmaxC) }

// Result is the outcome of one solver run.
type Result struct {
	Name string
	// Schedule is the thermally-accurate periodic schedule to execute
	// (for AO/PCO this is one oscillation cycle, including the
	// overhead-extended high intervals; repeat it indefinitely).
	Schedule *schedule.Schedule
	// Throughput is the chip-wide useful throughput (eq. (5)); for AO/PCO
	// it excludes the transition-stall padding, i.e. it counts the work
	// actually completed.
	Throughput float64
	// PeakRise is the verified stable-status peak temperature rise (K).
	// For AO/PCO it certifies the EXECUTED timeline — the emitted
	// schedule plus the τ-long high-voltage transition windows a real
	// DVFS rail produces (see internal/actuator) — so it can exceed the
	// peak of the bare Schedule by a small margin.
	PeakRise float64
	// M is the chosen oscillation count (1 for constant-mode solutions).
	M int
	// Feasible reports whether PeakRise respects the threshold.
	Feasible bool
	// Elapsed is the solver wall-clock time.
	Elapsed time.Duration
	// Evals counts steady-state/peak evaluations, a machine-independent
	// cost measure alongside Elapsed.
	Evals int64
	// Degraded is non-empty when the context deadline truncated the
	// search and this is the best-so-far plan, not the full answer. The
	// Schedule/PeakRise/Feasible fields are still exact for the plan
	// actually returned — only optimality is lost. Degraded results are
	// timing-dependent: two runs under different deadlines may differ, so
	// they must never enter determinism-keyed plan caches.
	Degraded DegradedReason
	// MEvaluated counts the oscillation-count candidates the m-search
	// managed to evaluate before the deadline. On a complete run the
	// incremental evaluator may stop early once the peak-vs-m curve has
	// risen decisively (Theorem 5 quasi-convexity), so this can be less
	// than the full scan width. 0 for solvers without an m-search.
	MEvaluated int
}

// PeakC returns the verified peak in absolute °C for the given model.
func (r *Result) PeakC(md *thermal.Model) float64 { return md.Absolute(r.PeakRise) }

// feasTol is the slack (in Kelvin) allowed when classifying a result as
// feasible, absorbing the round-off of long propagation chains.
const feasTol = 1e-6
