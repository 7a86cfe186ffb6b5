package thermosc

import (
	"context"
	"errors"
	"fmt"

	"thermosc/internal/solver"
)

// This file is the verified-safe fallback chain: the guarantee that a
// planning request always ends in a plan obeying Tmax or an explicit
// typed refusal, never a useless answer and never a plan whose safety
// rests on a truncated search. The chain is
//
//	full solve (AO/PCO/EXS/…) → degraded best-so-far (oracle-checked)
//	                          → constant safe floor  (oracle-checked)
//	                          → typed refusal (ErrInfeasible/ErrDeadline)
//
// Every degraded or floor plan is re-verified by the independent oracle
// (Platform.Audit, internal/verify) BEFORE being returned: a truncated
// search could in principle stop on an unluckily-evaluated state, so
// thermal safety is never taken from the solver's own claim alone.
// Complete (non-degraded) plans keep their existing contract — they are
// bit-reproducible, already covered by the sampled async audits, and are
// returned unmodified so cache determinism is preserved.

// Typed refusal sentinels, re-exported from internal/solver so callers
// can errors.Is against them without importing internal packages.
var (
	// ErrInfeasible: the platform cannot meet the threshold at all — even
	// the constant safe floor violates Tmax or shuts every core down.
	ErrInfeasible = solver.ErrInfeasible
	// ErrDeadline: the deadline expired before ANY valid plan was found
	// (wraps the context error, so errors.Is(err, context.DeadlineExceeded)
	// still works).
	ErrDeadline = solver.ErrDeadline
	// ErrDegraded: a complete plan was required but only a degraded one
	// was available (used by cache-refresh paths).
	ErrDegraded = solver.ErrDegraded
)

// SafeFloorPlan computes the fallback chain's terminal plan: the constant
// assignment from the ideal-speed step of Algorithm 2 rounded down to the
// nearest discrete mode (the LNS baseline), peak-checked by the
// independent oracle before being returned. It never observes a deadline
// — the solve is two linear evaluations. The plan carries Method LNS
// with Degraded=true and reason "safe-floor".
//
// Typed failures: ErrInfeasible when the floor violates Tmax or shuts
// every core down ("all modes too hot"); a plain error when the oracle
// rejects the floor's own peak claim (which would indicate a model bug,
// not an unlucky request).
func (p *Platform) SafeFloorPlan(tmaxC float64) (*Plan, error) {
	res, err := solver.SafeFloor(p.problem(tmaxC))
	if err != nil {
		return nil, err
	}
	plan := newPlan(p, MethodLNS, res)
	if err := p.auditPlan(plan, tmaxC); err != nil {
		return nil, fmt.Errorf("thermosc: safe floor rejected by the verification oracle: %w", err)
	}
	return plan, nil
}

// MaximizeResilient is MaximizeContext wrapped in the fallback chain:
//
//  1. Run the requested method. A complete feasible plan with useful
//     throughput is returned as-is (byte-identical to Maximize — safe to
//     cache).
//  2. A complete plan with zero throughput (every core shut down — the
//     threshold admits no mode at all) refuses with ErrInfeasible
//     instead of serving a plan that idles the chip.
//  3. A degraded (deadline-truncated) feasible plan is re-verified by
//     the independent oracle; if it passes, it is returned tagged
//     Degraded. If it fails the oracle or is infeasible, fall through.
//  4. ErrDeadline (no plan at all before the deadline) or a fallen-
//     through step 3 lands on the constant safe floor, oracle-checked.
//  5. If even the floor is infeasible: ErrInfeasible.
//
// Any non-deadline solver error propagates unchanged — the chain absorbs
// overload and truncation, not bugs.
func (p *Platform) MaximizeResilient(ctx context.Context, m Method, tmaxC float64) (*Plan, error) {
	plan, err := p.MaximizeContext(ctx, m, tmaxC)
	switch {
	case err == nil && !plan.Degraded:
		if plan.Feasible && plan.Throughput <= 0 {
			return nil, fmt.Errorf("%w: all modes too hot at Tmax %.2f °C — %s shuts every core down",
				ErrInfeasible, tmaxC, m)
		}
		if plan.Feasible {
			return plan, nil
		}
		// Complete but infeasible (possible only without core shutdown in
		// the mode set): the floor is the last candidate.
	case err == nil && plan.Degraded:
		if plan.Feasible && plan.Throughput > 0 && p.auditPlan(plan, tmaxC) == nil {
			return plan, nil
		}
		// Truncated plan is infeasible, useless, or failed the oracle:
		// fall through to the floor.
	case isDeadlineErr(err):
		// No plan at all before the deadline: the floor still applies.
	default:
		return nil, err
	}
	return p.SafeFloorPlan(tmaxC)
}

// auditPlan runs the independent oracle on plan and reduces the report to
// pass/fail (nil error = the plan's peak and invariants all verified).
func (p *Platform) auditPlan(plan *Plan, tmaxC float64) error {
	rep, err := p.Audit(plan, tmaxC)
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("audit failed: %s", rep.String())
	}
	return nil
}

// isDeadlineErr reports whether err is a deadline/cancellation abort —
// the error class the fallback chain absorbs.
func isDeadlineErr(err error) bool {
	return errors.Is(err, ErrDeadline) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
