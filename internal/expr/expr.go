// Package expr regenerates every table and figure of the paper's
// evaluation (§III motivation Tables II–III, Figs. 2–7, Table V) on the
// repository's calibrated thermal substrate, plus the ablation studies
// DESIGN.md calls out. Each experiment is a named Runner writing textual
// tables (and ASCII plots where the paper shows traces) to an io.Writer;
// EXPERIMENTS.md records paper-reported vs. measured values.
package expr

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"thermosc/internal/floorplan"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

// Config tunes experiment cost. Quick mode shrinks sweeps by roughly an
// order of magnitude so the full suite stays test-friendly; the shapes
// being verified are unchanged.
type Config struct {
	Quick bool
	// Seed drives the random schedule generators (Figs. 4 and 5).
	Seed int64
}

// Runner executes one experiment.
type Runner func(w io.Writer, cfg Config) error

// registryEntry pairs a runner with its description for listings.
type registryEntry struct {
	name string
	desc string
	run  Runner
}

var registry = []registryEntry{
	{"motivation", "§III Tables II & III: two-mode ratios and period sensitivity on 3×1", Motivation},
	{"fig2", "Fig. 2: single-core vs all-core oscillation on 2×1", Fig2},
	{"fig3", "Fig. 3: step-up schedule bounds arbitrary phase shifts on 3×1", Fig3},
	{"fig4", "Fig. 4: step-up temperature trace on a 6-core platform (Theorem 1)", Fig4},
	{"fig5", "Fig. 5: peak temperature vs m on a 9-core platform (Theorem 5)", Fig5},
	{"fig6", "Fig. 6: LNS/EXS/AO/PCO throughput across cores × voltage levels", Fig6},
	{"fig7", "Fig. 7: throughput across cores × Tmax at 2 voltage levels", Fig7},
	{"tablev", "Table V: computation time of AO/PCO/EXS across cores × levels", TableV},
	{"ablation", "Ablations: thermal-model variant, fixed-m, overhead sensitivity", Ablation},
	{"reactive", "Beyond the paper: reactive DTM governors vs proactive AO", Reactive},
	{"reliability", "Beyond the paper: thermal cycling fatigue of m-oscillation", Reliability},
	{"stacked", "Beyond the paper: AO on a 3D two-layer stack vs planar (§I motivation)", Stacked},
	{"admission", "Beyond the paper: real-time admission ratio over random task sets", Admission},
	{"robustness", "Beyond the paper: AO's guarantee under ±10% model uncertainty", Robustness},
	{"scaling", "Beyond the paper: AO cost on grids up to 6×6 (36 cores)", Scaling},
	{"tdp", "Beyond the paper: TDP power capping vs direct thermal capping (ref. [9])", TDP},
	{"actuation", "Beyond the paper: planned vs executed throughput under DVFS stalls", Actuation},
}

// Names returns the registered experiment names in run order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Run executes the named experiment.
func Run(name string, w io.Writer, cfg Config) error {
	for _, e := range registry {
		if e.name == name {
			return e.run(w, cfg)
		}
	}
	names := Names()
	sort.Strings(names)
	return fmt.Errorf("expr: unknown experiment %q (have %v)", name, names)
}

// All executes every experiment in order.
func All(w io.Writer, cfg Config) error {
	for _, e := range registry {
		fmt.Fprintf(w, "==== %s: %s ====\n\n", e.name, e.desc)
		if err := e.run(w, cfg); err != nil {
			return fmt.Errorf("expr: %s: %w", e.name, err)
		}
	}
	return nil
}

// paperConfigs are the multi-core layouts of §VI.
var paperConfigs = []struct {
	Name       string
	Rows, Cols int
}{
	{"2 cores", 2, 1},
	{"3 cores", 3, 1},
	{"6 cores", 3, 2},
	{"9 cores", 3, 3},
}

// platform builds the calibrated layered model for a paper layout.
func platform(rows, cols int) (*thermal.Model, error) {
	return thermal.Default(rows, cols)
}

// problem assembles a solver.Problem with the paper's defaults.
func problem(md *thermal.Model, levels *power.LevelSet, tmaxC float64) solver.Problem {
	return solver.Problem{
		Model:    md,
		Levels:   levels,
		TmaxC:    tmaxC,
		Overhead: power.DefaultOverhead(),
	}
}

// randomStepUp generates a random periodic step-up schedule: each core
// gets up to maxSegs segments with non-decreasing voltages drawn from the
// full DVFS range (the generator behind Figs. 4 and 5).
func randomStepUp(r *rand.Rand, fp *floorplan.Floorplan, period float64, maxSegs int) *schedule.Schedule {
	volts := power.FullRange().Voltages()
	cores := make([][]schedule.Segment, fp.NumCores())
	for i := range cores {
		k := 1 + r.Intn(maxSegs)
		// k ascending voltages.
		chosen := make([]float64, k)
		for a := range chosen {
			chosen[a] = volts[r.Intn(len(volts))]
		}
		sort.Float64s(chosen)
		// Random positive lengths summing to the period.
		weights := make([]float64, k)
		var sum float64
		for a := range weights {
			weights[a] = 0.2 + r.Float64()
			sum += weights[a]
		}
		for a, v := range chosen {
			cores[i] = append(cores[i], schedule.Segment{
				Length: period * weights[a] / sum,
				Mode:   power.NewMode(v),
			})
		}
	}
	return schedule.Must(cores)
}
