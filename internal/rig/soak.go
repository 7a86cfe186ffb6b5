package rig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"thermosc/internal/governor"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/solver"
)

// planProblem is the AO problem a plan-guard run's plan solves: the
// planner's nominal model, the paper level set, and a threshold derated
// by the scenario's plan margin. MaxM is capped by the scenario so the
// resulting oscillation cycle stays resolvable on the emulation grid.
func planProblem(r *Rig) solver.Problem {
	sc := r.Scenario()
	return solver.Problem{
		Model:    r.PlannerModel(),
		Levels:   r.Levels(),
		TmaxC:    sc.TmaxC - sc.PlanMarginK,
		Overhead: power.DefaultOverhead(),
		MaxM:     sc.MaxM,
	}
}

// PlanAO solves the AO plan a plan-guard run replays (see planProblem).
func PlanAO(r *Rig) (*schedule.Schedule, error) {
	prob := planProblem(r)
	res, err := solver.AO(prob)
	if err != nil {
		return nil, fmt.Errorf("rig: AO plan: %w", err)
	}
	if !res.Feasible || res.Schedule == nil {
		return nil, fmt.Errorf("rig: AO found no feasible plan at %.1f °C", prob.TmaxC)
	}
	return res.Schedule, nil
}

// GuardFor builds the default watchdog for a scenario's plan: trip three
// quarters of a plan margin below Tmax — early enough that a spike
// landing on an already-perturbed plant still leaves the guard band
// intact — and recover one kelvin cooler.
func GuardFor(sc Scenario, plan *schedule.Schedule, ls *power.LevelSet) (*PlanGuard, error) {
	return NewPlanGuard(plan, ls, sc.TmaxC-0.75*sc.PlanMarginK, 1.0)
}

// StepWiseFor builds the reactive baseline a plan guard is compared
// against: the step-wise governor tripping at Tmax with 2 K hysteresis.
func StepWiseFor(r *Rig) *governor.StepWise {
	return &governor.StepWise{TripC: r.sc.TmaxC, HystK: 2, Levels: r.levels.Len()}
}

// PredictiveFor builds the model-predictive baseline: the planner's
// model, a 1 K guard, a one-step horizon, and the scenario's actuation
// latency.
func PredictiveFor(r *Rig) *governor.Predictive {
	pred := governor.NewPredictive(r.planner, r.levels, r.sc.TmaxC, 1.0, r.sc.StepS)
	pred.LatencyS = r.sc.Actuator.LatencyS
	return pred
}

// planKey identifies scenarios that share one AO plan: everything the
// solve depends on, nothing the fault injection touches.
type planKey struct {
	rows, cols, levels, maxM int
	planTmaxC                float64
}

// planCache memoizes plan solves across a soak run; entries build at
// most once even when workers race (the sync.Once pattern of
// sim.Engine). A zero budget solves with PlanAO; a positive one solves
// with PlanAnytime under that budget. Degraded plans are
// timing-dependent, so solving once per key and replaying the cached
// schedule is what keeps the soak's replay-twice determinism check
// meaningful under starvation.
type planCache struct {
	budget time.Duration
	mu     sync.Mutex
	m      map[planKey]*planEntry
}

type planEntry struct {
	once   sync.Once
	sched  *schedule.Schedule
	reason solver.DegradedReason
	err    error
}

func newPlanCache(budget time.Duration) *planCache {
	return &planCache{budget: budget, m: make(map[planKey]*planEntry)}
}

func (c *planCache) plan(r *Rig) (*schedule.Schedule, solver.DegradedReason, error) {
	sc := r.Scenario()
	key := planKey{sc.Rows, sc.Cols, sc.PaperLevels, sc.MaxM, sc.TmaxC - sc.PlanMarginK}
	c.mu.Lock()
	ent, ok := c.m[key]
	if !ok {
		ent = &planEntry{}
		c.m[key] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() {
		if c.budget > 0 {
			ent.sched, ent.reason, ent.err = PlanAnytime(r, c.budget)
		} else {
			ent.sched, ent.err = PlanAO(r)
		}
	})
	return ent.sched, ent.reason, ent.err
}

// RandomScenarios derives n randomized fault scenarios from a base
// template, seed-pinned: the same (base, n, seed) always yields the same
// scenario list. Fault magnitudes are drawn inside the envelope the
// plan-guard's guard band is calibrated to absorb — the soak then asserts
// the closed loop actually absorbs them.
func RandomScenarios(base *Scenario, n int, seed int64) ([]*Scenario, error) {
	tmpl := Scenario{}
	if base != nil {
		tmpl = *base
	}
	if err := tmpl.Canon(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]*Scenario, 0, n)
	for i := 0; i < n; i++ {
		sc := tmpl
		sc.Name = fmt.Sprintf("soak-%03d", i)
		sc.Seed = r.Int63()
		sc.Sensor.NoiseStdK = 1.5 * r.Float64()
		sc.Sensor.QuantStepK = []float64{0, 0.5, 1}[r.Intn(3)]
		sc.Sensor.DropoutProb = 0.05 * r.Float64()
		sc.Sensor.StuckProb = 0.002 * r.Float64()
		sc.Sensor.StuckDurS = 0.1 + 0.2*r.Float64()
		sc.Actuator.LatencyS = 2e-3 * r.Float64()
		sc.Actuator.FailProb = 0.05 * r.Float64()
		sc.Power.SpikeProb = 0.01 * r.Float64()
		// A spike couples through the core's self thermal resistance
		// faster than DVFS can shed it; 1.2 W is the largest transient
		// the default plan margin + guard band can absorb on top of the
		// worst-case model mismatch below.
		sc.Power.SpikeW = 0.4 + 0.8*r.Float64()
		sc.Power.SpikeDurS = 0.2 + 0.3*r.Float64()
		sc.Power.LeakDriftWPerS = 0.01 * r.Float64()
		sc.Power.LeakDriftMaxW = 0.3
		sc.Mismatch.CoreScaleSpread = 0.03 * r.Float64()
		sc.Mismatch.ConvFactor = 1 + 0.06*r.Float64()
		sc.Mismatch.AmbientOffsetC = 2*r.Float64() - 1
		if err := sc.Canon(); err != nil {
			return nil, fmt.Errorf("rig: derived scenario %d invalid: %w", i, err)
		}
		out = append(out, &sc)
	}
	return out, nil
}

// ScenarioOutcome is one soak scenario's verdict.
type ScenarioOutcome struct {
	Scenario      *Scenario `json:"scenario"`
	Report        *Report   `json:"report"`
	Deterministic bool      `json:"deterministic"`
	// PlanDegraded tags a starved-soak scenario whose mid-run replan was
	// truncated (the solver.DegradedReason) — empty in plain soaks and
	// when the budget sufficed for a complete replan.
	PlanDegraded string `json:"plan_degraded,omitempty"`
}

// SoakReport aggregates a soak run.
type SoakReport struct {
	N                int     `json:"n"`
	Seed             int64   `json:"seed"`
	Controller       string  `json:"controller"`
	Violations       int     `json:"violations"`
	NonDeterministic int     `json:"non_deterministic"`
	WorstPeakC       float64 `json:"worst_peak_c"`
	WorstExcessK     float64 `json:"worst_excess_k"`
	MinThroughput    float64 `json:"min_throughput"`
	Pass             bool    `json:"pass"`
	// PlanBudgetS and DegradedPlans describe a starved soak (SoakStarved):
	// the wall-clock budget the mid-scenario replanner was held to, and
	// how many scenarios actually ran on a degraded/floor replan. Absent
	// in plain soaks.
	PlanBudgetS   float64            `json:"plan_budget_s,omitempty"`
	DegradedPlans int                `json:"degraded_plans,omitempty"`
	Scenarios     []*ScenarioOutcome `json:"scenarios"`
}

// Soak runs n randomized fault scenarios (derived from base, seed-pinned)
// under AO plans with plan-guard closed-loop correction. Every scenario
// runs TWICE from a fresh rig; a byte-level mismatch between the two
// trace hashes marks it non-deterministic. Pass requires zero violations
// of Tmax + guard band and full determinism. The scenarios run on
// GOMAXPROCS workers; the outcome order is by scenario index regardless
// of worker interleaving.
func Soak(base *Scenario, n int, seed int64) (*SoakReport, error) {
	return soak(base, n, seed, 0, 0)
}

// soak is the shared engine behind Soak (budget 0: full planning) and
// SoakStarved (budget > 0: mid-scenario replan under that budget), on
// `workers` goroutines (≤ 0: GOMAXPROCS).
func soak(base *Scenario, n int, seed int64, workers int, budget time.Duration) (*SoakReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("rig: soak needs at least one scenario")
	}
	scens, err := RandomScenarios(base, n, seed)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	plans := newPlanCache(0)
	var starved *planCache
	if budget > 0 {
		starved = newPlanCache(budget)
	}
	outcomes := make([]*ScenarioOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i], errs[i] = runGuardedTwice(scens[i], plans, starved)
			}
		}()
	}
	for i := range scens {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rig: scenario %d (%s): %w", i, scens[i].Name, err)
		}
	}

	rep := &SoakReport{N: n, Seed: seed, Scenarios: outcomes, MinThroughput: 1e18, PlanBudgetS: budget.Seconds()}
	for _, oc := range outcomes {
		rep.Controller = oc.Report.Controller
		if oc.Report.ViolationS > 0 {
			rep.Violations++
		}
		if !oc.Deterministic {
			rep.NonDeterministic++
		}
		if oc.PlanDegraded != "" {
			rep.DegradedPlans++
		}
		if oc.Report.TruePeakC > rep.WorstPeakC {
			rep.WorstPeakC = oc.Report.TruePeakC
		}
		if oc.Report.ExcessK > rep.WorstExcessK {
			rep.WorstExcessK = oc.Report.ExcessK
		}
		if oc.Report.Throughput < rep.MinThroughput {
			rep.MinThroughput = oc.Report.Throughput
		}
	}
	rep.Pass = rep.Violations == 0 && rep.NonDeterministic == 0
	return rep, nil
}

// runGuardedTwice executes one scenario under the guarded AO plan twice
// and checks the runs agree byte-for-byte. A non-nil starved cache adds
// the mid-scenario replan: both replays reuse the same cached
// budget-bounded plan, so starvation does not perturb the determinism
// check.
func runGuardedTwice(sc *Scenario, plans, starved *planCache) (*ScenarioOutcome, error) {
	rep1, reason, err := runGuarded(sc, plans, starved)
	if err != nil {
		return nil, err
	}
	rep2, _, err := runGuarded(sc, plans, starved)
	if err != nil {
		return nil, err
	}
	b1, err := json.Marshal(rep1)
	if err != nil {
		return nil, err
	}
	b2, err := json.Marshal(rep2)
	if err != nil {
		return nil, err
	}
	return &ScenarioOutcome{
		Scenario:      sc,
		Report:        rep1,
		Deterministic: rep1.TraceSHA256 == rep2.TraceSHA256 && bytes.Equal(b1, b2),
		PlanDegraded:  string(reason),
	}, nil
}

func runGuarded(sc *Scenario, plans, starved *planCache) (*Report, solver.DegradedReason, error) {
	r, err := New(sc)
	if err != nil {
		return nil, solver.DegradedNone, err
	}
	plan, _, err := plans.plan(r)
	if err != nil {
		return nil, solver.DegradedNone, err
	}
	guard, err := GuardFor(r.Scenario(), plan, r.Levels())
	if err != nil {
		return nil, solver.DegradedNone, err
	}
	var ctrl Controller = guard
	reason := solver.DegradedNone
	if starved != nil {
		replan, rr, err := starved.plan(r)
		if err != nil {
			return nil, solver.DegradedNone, err
		}
		reason = rr
		replanGuard, err := GuardFor(r.Scenario(), replan, r.Levels())
		if err != nil {
			return nil, solver.DegradedNone, err
		}
		ctrl = &starvedReplanGuard{full: guard, starved: replanGuard, switchS: r.Scenario().HorizonS / 2}
	}
	rep, err := r.Run(ctrl)
	return rep, reason, err
}

// CompareReport holds one scenario evaluated under several controllers.
type CompareReport struct {
	Scenario *Scenario `json:"scenario"`
	Runs     []*Report `json:"runs"`
}

// Compare runs the guarded AO plan against the reactive and predictive
// baselines on the SAME scenario. The per-family fault streams make the
// comparison honest: every controller sees the identical sensor-noise
// and power-spike sequences, and every controller warm-starts from the
// plan's stable state — the hot regime a deployment sits in — so a
// cold-start transient cannot flatter the baselines.
func Compare(sc *Scenario) (*CompareReport, error) {
	probe, err := New(sc)
	if err != nil {
		return nil, err
	}
	canon := probe.Scenario()
	plan, err := PlanAO(probe)
	if err != nil {
		return nil, err
	}
	build := []func(r *Rig) (Controller, error){
		func(r *Rig) (Controller, error) { return GuardFor(r.Scenario(), plan, r.Levels()) },
		func(r *Rig) (Controller, error) { return WithPlanWarmStart(StepWiseFor(r), plan), nil },
		func(r *Rig) (Controller, error) { return WithPlanWarmStart(PredictiveFor(r), plan), nil },
	}
	out := &CompareReport{Scenario: &canon}
	for _, mk := range build {
		r, err := New(sc)
		if err != nil {
			return nil, err
		}
		ctrl, err := mk(r)
		if err != nil {
			return nil, err
		}
		rep, err := r.Run(ctrl)
		if err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs, rep)
	}
	return out, nil
}
