package rig

import (
	"fmt"
	"math"

	"thermosc/internal/actuator"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/thermal"
)

// PlanGuard replays an offline plan (an AO/PCO oscillation cycle) through
// its compiled DVFS command stream while a thermal watchdog supplies the
// closed-loop correction: a level cap that steps down whenever the sensed
// peak crosses TripC and recovers once it cools below TripC − HystK. The
// plan provides the throughput-optimal shape; the cap defends the
// constraint when sensors, actuators, or the plant misbehave.
type PlanGuard struct {
	sched  *schedule.Schedule
	tl     *actuator.Timeline
	levels *power.LevelSet
	tripC  float64
	hystK  float64

	cap     int
	panic   bool
	voltBuf []float64
	// lvlOf maps each timeline voltage to its level index; built once at
	// construction so Want stays allocation-free.
	lvlOf map[float64]int
}

// NewPlanGuard compiles the schedule into its command stream and attaches
// the watchdog. Every voltage appearing in the schedule must be a level
// of ls (or 0 for an inactive core), and the trip point must lie below
// the hysteresis-recovered band's ceiling.
func NewPlanGuard(sched *schedule.Schedule, ls *power.LevelSet, tripC, hystK float64) (*PlanGuard, error) {
	if sched == nil {
		return nil, fmt.Errorf("rig: plan guard needs a schedule")
	}
	if hystK <= 0 || math.IsNaN(hystK) {
		return nil, fmt.Errorf("rig: plan guard hysteresis %v must be positive", hystK)
	}
	if math.IsNaN(tripC) || math.IsInf(tripC, 0) {
		return nil, fmt.Errorf("rig: plan guard trip %v invalid", tripC)
	}
	tl, err := actuator.NewTimeline(actuator.Compile(sched), sched.Period(), sched.NumCores())
	if err != nil {
		return nil, err
	}
	lvlOf := map[float64]int{0: -1}
	for i := 0; i < sched.NumCores(); i++ {
		for _, seg := range sched.CoreSegments(i) {
			v := seg.Mode.Voltage
			if _, ok := lvlOf[v]; ok {
				continue
			}
			idx, err := levelIndex(ls, v)
			if err != nil {
				return nil, err
			}
			lvlOf[v] = idx
		}
	}
	return &PlanGuard{
		sched:   sched,
		tl:      tl,
		levels:  ls,
		tripC:   tripC,
		hystK:   hystK,
		cap:     ls.Len() - 1,
		voltBuf: make([]float64, sched.NumCores()),
		lvlOf:   lvlOf,
	}, nil
}

// Name implements Controller.
func (g *PlanGuard) Name() string { return "plan-guard" }

// Decide implements Controller: the watchdog updates the level cap from
// the hottest sensed temperature. The cap sheds proportionally — one
// level per HystK of overshoot past the trip point, so a fast transient
// (a power spike landing on an already-hot core) pulls several levels in
// a single period instead of chasing it one step per period — and
// recovers one level at a time once the die cools below TripC − HystK.
// Past TripC + HystK the lowest level may still be too much heat (a
// two-level platform has almost no cap authority), so the guard clock-
// gates: every core goes off until the die cools back below the
// recovery threshold. That last resort is what bounds the worst-case
// excess under model mismatch.
func (g *PlanGuard) Decide(now float64, sensedC []float64, applied []int) {
	hottest := sensedC[0]
	for _, v := range sensedC[1:] {
		if v > hottest {
			hottest = v
		}
	}
	switch {
	case hottest > g.tripC:
		drop := 1 + int((hottest-g.tripC)/g.hystK)
		if g.cap -= drop; g.cap < 0 {
			g.cap = 0
		}
		if hottest > g.tripC+g.hystK {
			g.panic = true
		}
	case hottest < g.tripC-g.hystK:
		g.panic = false
		if g.cap < g.levels.Len()-1 {
			g.cap++
		}
	}
}

// Want implements Controller: the plan's programmed level at t, clamped
// by the watchdog cap; all cores off while the panic gate is tripped.
func (g *PlanGuard) Want(t float64, out []int) {
	if g.panic {
		for i := range out[:g.sched.NumCores()] {
			out[i] = -1
		}
		return
	}
	g.tl.Voltages(t, g.voltBuf)
	for i, v := range g.voltBuf {
		lvl := g.lvlOf[v]
		if lvl > g.cap {
			lvl = g.cap
		}
		out[i] = lvl
	}
}

// InitialLevels implements InitialLeveler: start on the plan.
func (g *PlanGuard) InitialLevels(n int) []int {
	out := make([]int, n)
	g.Want(0, out)
	return out
}

// WarmStart implements WarmStarter: the plant's stable state under the
// plan.
func (g *PlanGuard) WarmStart(plant *thermal.Model) ([]float64, error) {
	return planStart(plant, g.sched)
}

// Cap returns the watchdog's current level cap (for tests and traces).
func (g *PlanGuard) Cap() int { return g.cap }

func levelIndex(ls *power.LevelSet, v float64) (int, error) {
	for k := 0; k < ls.Len(); k++ {
		if math.Abs(ls.Mode(k).Voltage-v) <= 1e-9 {
			return k, nil
		}
	}
	return 0, fmt.Errorf("rig: schedule voltage %v is not a platform level", v)
}

// stateSeeder is implemented by controllers whose internal observer can
// be initialized from a known plant state (rise above ambient, full node
// vector).
type stateSeeder interface {
	SeedState(rise []float64) error
}

// WithPlanWarmStart gives any controller the same warm start a PlanGuard
// gets: the plant's stable state under the reference plan. Comparing a
// warm-started plan replay against cold-started reactive baselines would
// measure the sink's minutes-long heat-up transient, not the controllers;
// wrapping the baselines with the plan's regime makes Compare
// apples-to-apples. Controllers with an internal observer are seeded with
// the same state — a deployed governor's observer would long since have
// converged.
type planWarm struct {
	Controller
	sched *schedule.Schedule
}

func WithPlanWarmStart(c Controller, sched *schedule.Schedule) Controller {
	return &planWarm{Controller: c, sched: sched}
}

func (w *planWarm) WarmStart(plant *thermal.Model) ([]float64, error) {
	start, err := planStart(plant, w.sched)
	if err != nil {
		return nil, err
	}
	if s, ok := w.Controller.(stateSeeder); ok {
		if err := s.SeedState(start); err != nil {
			return nil, err
		}
	}
	return start, nil
}

// planStart is the plant's thermally stable state under the unperturbed
// plan — the hot regime a long-running deployment actually sits in.
func planStart(plant *thermal.Model, sched *schedule.Schedule) ([]float64, error) {
	if plant.NumCores() != sched.NumCores() {
		return nil, fmt.Errorf("rig: plan has %d cores, plant %d", sched.NumCores(), plant.NumCores())
	}
	st, err := sim.NewStable(plant, sched)
	if err != nil {
		return nil, err
	}
	return st.Start(), nil
}
