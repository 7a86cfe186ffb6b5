package solver

import "fmt"

// SafeFloor computes the fallback chain's terminal plan: the constant
// per-core assignment obtained from the ideal-speed step of Algorithm 2
// with every continuous voltage rounded DOWN to the nearest discrete mode
// — i.e. the LNS baseline (§III). Rounding down from the ideal-pinned
// voltages keeps every core's steady state at or below Tmax, so the floor
// is feasible whenever the platform admits any useful plan at all.
//
// SafeFloor never observes the problem's context: it is what the anytime
// chain falls back to AFTER a deadline, so it must complete even under an
// already-expired Ctx (the solve is two linear evaluations — microseconds,
// not a search). The result is tagged DegradedFallback and its peak is
// the solver's own claim; a caller that serves it re-checks that peak
// with the independent oracle first, as Platform.SafeFloorPlan does with
// internal/verify.
//
// Typed refusals instead of useless plans:
//
//   - the rounded assignment still violates Tmax (only possible with
//     DisallowOff, which pins cores at the lowest level): ErrInfeasible;
//   - every core rounds to off (Tmax ≈ ambient — "all modes too hot"),
//     so the plan would idle the chip: ErrInfeasible.
func SafeFloor(p Problem) (*Result, error) {
	p.Ctx = nil // the floor must complete even under an expired deadline
	res, err := LNS(p)
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("%w: constant safe floor peaks %.3f K above ambient against a budget of %.3f K",
			ErrInfeasible, res.PeakRise, p.Model.Rise(p.TmaxC))
	}
	if res.Throughput <= 0 {
		return nil, fmt.Errorf("%w: all modes too hot at Tmax %.2f °C — the safe floor shuts every core down",
			ErrInfeasible, p.TmaxC)
	}
	res.Degraded = DegradedFallback
	return res, nil
}
