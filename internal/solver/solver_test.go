package solver

import (
	"math"
	"testing"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/thermal"
)

func problem(t testing.TB, rows, cols, levels int, tmaxC float64) Problem {
	t.Helper()
	md, err := thermal.Default(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(levels)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{
		Model:    md,
		Levels:   ls,
		TmaxC:    tmaxC,
		Overhead: power.DefaultOverhead(),
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := (Problem{}).withDefaults(); err == nil {
		t.Fatal("nil model must error")
	}
	p := problem(t, 2, 1, 2, 65)
	p.TmaxC = 20 // below ambient
	if _, err := LNS(p); err == nil {
		t.Fatal("Tmax below ambient must error")
	}
}

func TestIdealVoltagesShape3x1(t *testing.T) {
	md, err := thermal.Default(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	volts, err := IdealVoltages(md, 30, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: [1.2085, 1.1748, 1.2085] — we require the same shape: ends
	// symmetric, middle strictly lower, all within the plausible band.
	if math.Abs(volts[0]-volts[2]) > 1e-6 {
		t.Fatalf("end cores not symmetric: %v", volts)
	}
	if volts[1] >= volts[0] {
		t.Fatalf("middle core should need a lower voltage: %v", volts)
	}
	for _, v := range volts {
		if v < 1.0 || v > 1.3 {
			t.Fatalf("ideal voltage %v outside calibrated band: %v", v, volts)
		}
	}
	// Running the ideal voltages must hit Tmax exactly (steady state).
	modes := make([]power.Mode, 3)
	for i, v := range volts {
		modes[i] = power.NewMode(v)
	}
	temps := md.SteadyStateCores(modes)
	for i, rise := range temps {
		if math.Abs(rise-30) > 1e-6 {
			t.Fatalf("core %d steady rise %v, want 30", i, rise)
		}
	}
}

func TestIdealVoltagesCapped(t *testing.T) {
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A huge budget caps at vcap.
	volts, err := IdealVoltages(md, 200, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range volts {
		if v != 1.3 {
			t.Fatalf("expected cap at 1.3: %v", volts)
		}
	}
	if _, err := IdealVoltages(md, -1, 1.3); err == nil {
		t.Fatal("negative budget must error")
	}
}

func TestLNSMatchesPaperMotivation(t *testing.T) {
	// 3×1, 2 levels, Tmax=65: LNS rounds everything down to 0.6 V and
	// achieves throughput 0.6 (paper §III).
	p := problem(t, 3, 1, 2, 65)
	res, err := LNS(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-0.6) > 1e-9 {
		t.Fatalf("LNS throughput = %v, want 0.6", res.Throughput)
	}
	if !res.Feasible {
		t.Fatal("LNS must be feasible here")
	}
	for _, m := range modesOf(res.Schedule) {
		if m.Voltage != 0.6 {
			t.Fatalf("LNS modes = %v", modesOf(res.Schedule))
		}
	}
}

func TestEXSMatchesNaive(t *testing.T) {
	for _, cfg := range []struct {
		rows, cols, levels int
		tmax               float64
	}{
		{2, 1, 2, 65}, {3, 1, 2, 65}, {3, 1, 3, 55}, {2, 1, 5, 60}, {3, 2, 2, 55},
	} {
		p := problem(t, cfg.rows, cfg.cols, cfg.levels, cfg.tmax)
		fast, err := EXS(p)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := EXSNaive(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast.Throughput-naive.Throughput) > 1e-9 {
			t.Fatalf("%+v: EXS %v != naive %v", cfg, fast.Throughput, naive.Throughput)
		}
		if fast.Feasible != naive.Feasible {
			t.Fatalf("%+v: feasibility mismatch", cfg)
		}
		if fast.Evals >= naive.Evals {
			t.Logf("%+v: pruning did not reduce evals (%d vs %d)", cfg, fast.Evals, naive.Evals)
		}
	}
}

func TestEXSBeatsOrMatchesLNS(t *testing.T) {
	for _, levels := range []int{2, 3, 4, 5} {
		p := problem(t, 3, 1, levels, 65)
		lns, err := LNS(p)
		if err != nil {
			t.Fatal(err)
		}
		exs, err := EXS(p)
		if err != nil {
			t.Fatal(err)
		}
		if exs.Throughput < lns.Throughput-1e-9 {
			t.Fatalf("levels=%d: EXS %v < LNS %v", levels, exs.Throughput, lns.Throughput)
		}
		if !exs.Feasible {
			t.Fatalf("levels=%d: EXS infeasible", levels)
		}
	}
}

func TestEXSTightThreshold(t *testing.T) {
	// Tmax barely above ambient: even all-0.6 V overheats. With the
	// paper's inactive mode available, EXS degrades to shutting every
	// core off (feasible, zero throughput)...
	p := problem(t, 3, 1, 2, 38)
	res, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("all-off must be feasible")
	}
	if res.Throughput != 0 {
		t.Fatalf("expected zero throughput, got %v", res.Throughput)
	}
	// ...and with shutdown disallowed the instance is infeasible.
	p.DisallowOff = true
	res, err = EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("expected infeasible, got throughput %v", res.Throughput)
	}
	if res.Schedule != nil {
		t.Fatal("infeasible result must carry no schedule")
	}
	// The naive enumeration agrees on both counts.
	naive, err := EXSNaive(p)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Feasible {
		t.Fatal("naive should also be infeasible with shutdown disallowed")
	}
}

func TestCoreShutdownEnablesTightThresholds(t *testing.T) {
	// The 9-core platform at Tmax = 50 °C cannot run all cores even at
	// the lowest level (the Fig. 7 corner); shutting cores down restores
	// feasibility with nonzero throughput for EXS and AO.
	p := problem(t, 3, 3, 2, 50)
	exs, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if !exs.Feasible || exs.Throughput <= 0 {
		t.Fatalf("EXS with shutdown: feasible=%v thr=%v", exs.Feasible, exs.Throughput)
	}
	ao, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ao.Feasible {
		t.Fatalf("AO with off-oscillation should be feasible, peak %.3f", ao.PeakRise)
	}
	if ao.Throughput < exs.Throughput-1e-6 {
		t.Fatalf("AO %v below EXS %v", ao.Throughput, exs.Throughput)
	}
}

func TestNeighborSpecsOffOscillation(t *testing.T) {
	ls := power.MustLevelSet(0.6, 1.3)
	specs := neighborSpecs(ls, []float64{0.45}, true)
	// Below-floor ideals pair "off" with the lowest level and start at
	// the optimistic constant-min point (RH = 1); the TPT reduction cuts
	// from there as the thermal budget requires.
	if !specs[0].Low.IsOff() || specs[0].High.Voltage != 0.6 {
		t.Fatalf("wrong modes: %+v", specs[0])
	}
	if specs[0].RH != 1 {
		t.Fatalf("expected optimistic RH=1 start: %+v", specs[0])
	}
	// Without the inactive mode the core is pinned to the lowest level.
	pinned := neighborSpecs(ls, []float64{0.45}, false)
	if pinned[0].oscillating() || pinned[0].Low.Voltage != 0.6 {
		t.Fatalf("pinned spec wrong: %+v", pinned[0])
	}
}

func TestAOFeasibleAndBeatsEXS(t *testing.T) {
	for _, cfg := range []struct {
		rows, cols, levels int
	}{
		{2, 1, 2}, {3, 1, 2}, {3, 1, 3}, {3, 2, 2},
	} {
		p := problem(t, cfg.rows, cfg.cols, cfg.levels, 65)
		ao, err := AO(p)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !ao.Feasible {
			t.Fatalf("%+v: AO infeasible with peak %.3f", cfg, ao.PeakRise)
		}
		exs, err := EXS(p)
		if err != nil {
			t.Fatal(err)
		}
		if ao.Throughput < exs.Throughput-1e-6 {
			t.Fatalf("%+v: AO %v below EXS %v", cfg, ao.Throughput, exs.Throughput)
		}
		// Verify the claimed peak independently with a dense search on
		// the returned schedule. The claim certifies the EXECUTED
		// timeline (emitted + transition windows), so the bare emitted
		// schedule must be at or slightly below it.
		stable, err := sim.NewStable(p.Model, ao.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		peak, _, _ := stable.PeakDense(32)
		if peak > p.tmaxRise()+1e-4 {
			t.Fatalf("%+v: AO schedule actually peaks at %.4f K rise", cfg, peak)
		}
		if peak > ao.PeakRise+1e-4 {
			t.Fatalf("%+v: emitted peak %.5f above the certified executed peak %.5f", cfg, peak, ao.PeakRise)
		}
		if ao.PeakRise-peak > 0.3 {
			t.Fatalf("%+v: transition-window margin implausibly large: %.5f vs %.5f", cfg, ao.PeakRise, peak)
		}
	}
}

func TestAOBoundedByIdeal(t *testing.T) {
	p := problem(t, 3, 1, 2, 65)
	ao, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Ideal(p)
	if err != nil {
		t.Fatal(err)
	}
	if ao.Throughput > ideal.Throughput+1e-9 {
		t.Fatalf("AO %v exceeds the continuous ideal %v", ao.Throughput, ideal.Throughput)
	}
}

func TestAOZeroOverheadUsesLargeM(t *testing.T) {
	// Tmax = 60 °C keeps the 2×1 ideal voltages strictly inside the
	// (0.6 V, 1.3 V) band so both cores actually oscillate.
	p := problem(t, 2, 1, 2, 60)
	p.Overhead = power.TransitionOverhead{} // free transitions
	p.MaxM = 64
	ao, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	// With free transitions the peak decreases monotonically in m
	// (Theorem 5), so the search should run to the cap.
	if ao.M != 64 {
		t.Fatalf("AO chose m=%d, want the cap 64", ao.M)
	}
	if !ao.Feasible {
		t.Fatal("AO must be feasible")
	}
}

func TestAOOverheadLimitsM(t *testing.T) {
	p := problem(t, 2, 1, 2, 65)
	p.Overhead = power.TransitionOverhead{Tau: 200e-6} // brutal 200 µs stalls
	p.MaxM = 4096
	ao, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	if ao.M > 40 {
		t.Fatalf("AO chose m=%d despite heavy overhead", ao.M)
	}
}

func TestPCOAtLeastAsGoodAsAO(t *testing.T) {
	for _, cfg := range []struct {
		rows, cols, levels int
	}{
		{2, 1, 2}, {3, 1, 2},
	} {
		p := problem(t, cfg.rows, cfg.cols, cfg.levels, 65)
		ao, err := AO(p)
		if err != nil {
			t.Fatal(err)
		}
		pco, err := PCO(p)
		if err != nil {
			t.Fatal(err)
		}
		if !pco.Feasible {
			t.Fatalf("%+v: PCO infeasible", cfg)
		}
		if pco.Throughput < ao.Throughput-1e-6 {
			t.Fatalf("%+v: PCO %v below AO %v", cfg, pco.Throughput, ao.Throughput)
		}
		// Independent dense verification of the returned schedule.
		stable, err := sim.NewStable(p.Model, pco.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		peak, _, _ := stable.PeakDense(48)
		if peak > p.tmaxRise()+0.05 {
			t.Fatalf("%+v: PCO schedule peaks at %.4f K rise (budget %.4f)", cfg, peak, p.tmaxRise())
		}
	}
}

func TestMotivationExampleOrdering(t *testing.T) {
	// The paper's §III story: on 3×1 with 2 levels at 65 °C,
	// LNS (0.6) < EXS (≈0.83) < AO two-mode oscillation (≈0.87+).
	p := problem(t, 3, 1, 2, 65)
	lns, _ := LNS(p)
	exs, _ := EXS(p)
	ao, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	if !(lns.Throughput < exs.Throughput && exs.Throughput < ao.Throughput) {
		t.Fatalf("ordering violated: LNS %.4f, EXS %.4f, AO %.4f",
			lns.Throughput, exs.Throughput, ao.Throughput)
	}
	// AO's gain over LNS should be substantial (paper reports 45.42% for
	// the original period; shape, not exact value).
	if ao.Throughput/lns.Throughput < 1.2 {
		t.Fatalf("AO gain over LNS too small: %.4f vs %.4f", ao.Throughput, lns.Throughput)
	}
}

func TestNeighborSpecs(t *testing.T) {
	ls := power.MustLevelSet(0.6, 0.8, 1.3)
	specs := neighborSpecs(ls, []float64{0.7, 0.8, 1.25, 0, 0.5, 1.4}, false)
	// 0.7 → between 0.6 and 0.8, rH = 0.5.
	if !specs[0].oscillating() || math.Abs(specs[0].RH-0.5) > 1e-9 {
		t.Fatalf("spec0 = %+v", specs[0])
	}
	// 0.8 → exact level, constant.
	if specs[1].oscillating() || specs[1].Low.Voltage != 0.8 {
		t.Fatalf("spec1 = %+v", specs[1])
	}
	// 1.25 → between 0.8 and 1.3, rH = 0.9.
	if math.Abs(specs[2].RH-0.9) > 1e-9 {
		t.Fatalf("spec2 = %+v", specs[2])
	}
	// 0 → off.
	if !specs[3].Low.IsOff() || specs[3].oscillating() {
		t.Fatalf("spec3 = %+v", specs[3])
	}
	// Below min → clamps to min, constant.
	if specs[4].oscillating() || specs[4].Low.Voltage != 0.6 {
		t.Fatalf("spec4 = %+v", specs[4])
	}
	// Above max → clamps to max, constant.
	if specs[5].oscillating() || specs[5].Low.Voltage != 1.3 {
		t.Fatalf("spec5 = %+v", specs[5])
	}
	// Work preservation: spec speed equals the ideal voltage when inside
	// the range.
	if math.Abs(specs[0].speed()-0.7) > 1e-9 {
		t.Fatalf("spec0 speed = %v", specs[0].speed())
	}
}

func TestBuildCycleOverheadDegradation(t *testing.T) {
	specs := []coreSpec{{Low: power.NewMode(0.6), High: power.NewMode(1.3), RH: 0.5}}
	o := power.TransitionOverhead{Tau: 1e-3}
	// δ ≈ 2.71 ms; a 4 ms cycle cannot absorb 2δ ≈ 5.4 ms of extension,
	// so the core degrades to constant high.
	cyc, err := buildCycle(4e-3, specs, o, cycleThermal)
	if err != nil {
		t.Fatal(err)
	}
	if segs := cyc.CoreSegments(0); len(segs) != 1 || segs[0].Mode.Voltage != 1.3 {
		t.Fatalf("expected constant-high degradation, got %v", segs)
	}
	// A 1 s cycle absorbs the overhead: two segments, high slightly
	// extended past the nominal ratio.
	cyc, err = buildCycle(1.0, specs, o, cycleThermal)
	if err != nil {
		t.Fatal(err)
	}
	segs := cyc.CoreSegments(0)
	if len(segs) != 2 {
		t.Fatalf("expected two segments, got %v", segs)
	}
	if segs[1].Length <= 0.5 {
		t.Fatalf("high interval %v not extended beyond nominal 0.5 s", segs[1].Length)
	}
}

func TestResultPeakC(t *testing.T) {
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{PeakRise: 30}
	if r.PeakC(md) != 65 {
		t.Fatalf("PeakC = %v", r.PeakC(md))
	}
}

func TestIdealThroughputMatchesMeanVoltage(t *testing.T) {
	p := problem(t, 3, 1, 2, 65)
	res, err := Ideal(p)
	if err != nil {
		t.Fatal(err)
	}
	volts, err := IdealVoltages(p.Model, p.tmaxRise(), p.Levels.Max())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-mat.VecSum(volts)/3) > 1e-9 {
		t.Fatalf("Ideal throughput %v, volts %v", res.Throughput, volts)
	}
	if !res.Feasible {
		t.Fatal("ideal assignment must be feasible by construction")
	}
}

// modesOf extracts the constant modes of a constant schedule.
func modesOf(s *schedule.Schedule) []power.Mode {
	modes := make([]power.Mode, s.NumCores())
	for i := range modes {
		modes[i] = s.ModeAt(i, 0)
	}
	return modes
}
