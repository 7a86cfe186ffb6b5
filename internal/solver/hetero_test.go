package solver

import (
	"math"
	"testing"

	"thermosc/internal/floorplan"
	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

func heteroProblem(t testing.TB, scales []float64, levels int, tmaxC float64) Problem {
	t.Helper()
	fp := floorplan.MustGrid(len(scales), 1, 4e-3)
	md, err := thermal.NewHeteroModel(fp, thermal.HotSpot65nm(), power.DefaultModel(), scales)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(levels)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Model: md, Levels: ls, TmaxC: tmaxC, Overhead: power.DefaultOverhead()}
}

func TestHeteroIdealVoltagesFavorLittleCores(t *testing.T) {
	p := heteroProblem(t, []float64{1.8, 1, 1}, 2, 65)
	volts, err := IdealVoltages(p.Model, p.Model.Rise(65), 1.3)
	if err != nil {
		t.Fatal(err)
	}
	// The power-hungry core must be assigned a lower ideal voltage than
	// its mirror-position efficient sibling.
	if volts[0] >= volts[2] {
		t.Fatalf("big core should get a lower voltage: %v", volts)
	}
	// And the ideal assignment still pins every core at the budget.
	modes := make([]power.Mode, 3)
	for i, v := range volts {
		modes[i] = power.NewMode(v)
	}
	for i, rise := range p.Model.SteadyStateCores(modes) {
		if math.Abs(rise-30) > 1e-6 {
			t.Fatalf("core %d rise %v, want 30", i, rise)
		}
	}
}

func TestHeteroEXSMatchesNaive(t *testing.T) {
	p := heteroProblem(t, []float64{1.5, 1, 0.8}, 3, 60)
	fast, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := EXSNaive(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Throughput-naive.Throughput) > 1e-9 {
		t.Fatalf("hetero EXS %v != naive %v", fast.Throughput, naive.Throughput)
	}
}

func TestHeteroAOFeasibleAndDominant(t *testing.T) {
	p := heteroProblem(t, []float64{1.5, 1, 0.8}, 2, 65)
	ao, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ao.Feasible {
		t.Fatalf("hetero AO infeasible (peak rise %.3f)", ao.PeakRise)
	}
	exs, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if ao.Throughput < exs.Throughput-1e-6 {
		t.Fatalf("hetero AO %v below EXS %v", ao.Throughput, exs.Throughput)
	}
	// The efficient core should sustain at least the speed of the hungry
	// one in the final schedule.
	sBig := ao.Schedule.CoreWork(0) / ao.Schedule.Period()
	sLittle := ao.Schedule.CoreWork(2) / ao.Schedule.Period()
	if sLittle < sBig-1e-9 {
		t.Fatalf("efficient core slower than hungry core: %v vs %v", sLittle, sBig)
	}
}

func TestHeteroEfficiencySkewShiftsWork(t *testing.T) {
	// Make core 0 drastically cheaper than core 1: EXS should exploit it.
	p := heteroProblem(t, []float64{0.5, 2.0}, 5, 55)
	exs, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if !exs.Feasible {
		t.Fatal("expected feasible")
	}
	v0 := exs.Schedule.ModeAt(0, 0).Voltage
	v1 := exs.Schedule.ModeAt(1, 0).Voltage
	if v0 <= v1 {
		t.Fatalf("cheap core should run faster: %v vs %v", v0, v1)
	}
}
