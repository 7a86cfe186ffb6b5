package rig

import (
	"context"
	"errors"
	"fmt"
	"time"

	"thermosc/internal/schedule"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

// PlanAnytime solves the scenario's AO plan under a hard wall-clock
// budget: a complete AO solve if the budget allows, the solver's tagged
// best-so-far plan when the deadline truncates the search, and
// solver.SafeFloor when the deadline expires before any incumbent
// exists. Unlike the serving layer's fallback chain, it runs no oracle
// check on the truncated or floor plan: the rig measures whatever it
// returns against the plant's true temperatures. The returned reason is
// solver.DegradedNone for a complete solve. Degraded plans are
// timing-dependent; callers that need replay determinism must solve once
// and reuse the schedule (see planCache).
func PlanAnytime(r *Rig, budget time.Duration) (*schedule.Schedule, solver.DegradedReason, error) {
	prob := planProblem(r)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	prob.Ctx = ctx
	res, err := solver.AO(prob)
	switch {
	case err == nil && res.Feasible && res.Schedule != nil:
		return res.Schedule, res.Degraded, nil
	case err != nil && !errors.Is(err, solver.ErrDeadline):
		return nil, solver.DegradedNone, fmt.Errorf("rig: anytime AO plan: %w", err)
	case err == nil && res.Degraded == solver.DegradedNone:
		// A complete solve that found nothing feasible: the floor cannot
		// do better, so this is a genuine refusal, not starvation.
		return nil, solver.DegradedNone, fmt.Errorf("rig: AO found no feasible plan at %.1f °C", prob.TmaxC)
	}
	// Deadline before any feasible incumbent: the safe floor completes
	// regardless of the (expired) context.
	floor, err := solver.SafeFloor(prob)
	if err != nil {
		return nil, solver.DegradedNone, fmt.Errorf("rig: safe floor: %w", err)
	}
	return floor.Schedule, floor.Degraded, nil
}

// starvedReplanGuard models a mid-scenario replan under planner
// starvation: the full AO plan runs until switchS, then the
// deadline-starved plan (degraded best-so-far or the safe floor) is
// swapped in. Both watchdogs track the telemetry for the whole run, so
// the replan's level cap is already wound down to the thermal reality
// at the instant of the swap — exactly what a deployed replanner that
// inherits the watchdog state would see.
type starvedReplanGuard struct {
	full    *PlanGuard
	starved *PlanGuard
	switchS float64
}

// Name implements Controller.
func (g *starvedReplanGuard) Name() string { return "plan-guard/starved-replan" }

// Decide implements Controller: both watchdogs observe every sample.
func (g *starvedReplanGuard) Decide(now float64, sensedC []float64, applied []int) {
	g.full.Decide(now, sensedC, applied)
	g.starved.Decide(now, sensedC, applied)
}

// Want implements Controller: the full plan before the swap, the
// starved replan after.
func (g *starvedReplanGuard) Want(t float64, out []int) {
	if t < g.switchS {
		g.full.Want(t, out)
		return
	}
	g.starved.Want(t, out)
}

// InitialLevels implements InitialLeveler: start on the full plan.
func (g *starvedReplanGuard) InitialLevels(n int) []int { return g.full.InitialLevels(n) }

// WarmStart implements WarmStarter: the full plan's stable regime.
func (g *starvedReplanGuard) WarmStart(plant *thermal.Model) ([]float64, error) {
	return g.full.WarmStart(plant)
}

// SoakStarved is Soak with the planner deadline-starved mid-scenario:
// every scenario runs the full AO plan to the horizon midpoint, then
// swaps to a plan solved under the given wall-clock budget — the
// degraded best-so-far when the budget truncates the search, the
// constant safe floor when it expires before any incumbent. Pass still
// requires zero violations of Tmax + guard band and byte-identical
// replays: degraded planning may cost throughput, never safety.
func SoakStarved(base *Scenario, n int, seed int64, budget time.Duration) (*SoakReport, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("rig: starved soak needs a positive plan budget")
	}
	return soak(base, n, seed, 0, budget)
}
