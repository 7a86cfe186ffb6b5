package thermosc

import (
	"math"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	p, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCores() != 3 {
		t.Fatalf("NumCores = %d", p.NumCores())
	}
	if p.AmbientC() != 35 {
		t.Fatalf("AmbientC = %v", p.AmbientC())
	}
	if got := p.VoltageLevels(); len(got) != 15 || got[0] != 0.6 || got[len(got)-1] != 1.3 {
		t.Fatalf("VoltageLevels = %v", got)
	}
	if tc := p.DominantTimeConstant(); tc <= 0 {
		t.Fatalf("DominantTimeConstant = %v", tc)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("invalid grid must error")
	}
	if _, err := New(2, 1, WithVoltageLevels()); err == nil {
		t.Fatal("empty level set must error")
	}
	if _, err := New(2, 1, WithTransitionOverhead(-1)); err == nil {
		t.Fatal("negative overhead must error")
	}
	if _, err := New(2, 1, WithBasePeriod(0)); err == nil {
		t.Fatal("zero period must error")
	}
	if _, err := New(2, 1, WithCoreEdge(-1)); err == nil {
		t.Fatal("negative core edge must error")
	}
	if _, err := New(2, 1, WithConvectionR(0)); err == nil {
		t.Fatal("zero convection resistance must error")
	}
	if _, err := New(2, 1, WithPaperLevels(7)); err == nil {
		t.Fatal("undefined paper level count must error")
	}
}

func TestSteadyTempC(t *testing.T) {
	p, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	temps, err := p.SteadyTempC([]float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range temps {
		if math.Abs(tc-35) > 1e-9 {
			t.Fatalf("idle platform should sit at ambient: %v", temps)
		}
	}
	hot, err := p.SteadyTempC([]float64{1.3, 1.3, 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if hot[1] <= 65 {
		t.Fatalf("full throttle should overheat 65 °C: %v", hot)
	}
	if _, err := p.SteadyTempC([]float64{1}); err == nil {
		t.Fatal("wrong vector length must error")
	}
	if _, err := p.SteadyTempC([]float64{-1, 0, 0}); err == nil {
		t.Fatal("negative voltage must error")
	}
}

func TestMaximizeAllMethods(t *testing.T) {
	p, err := New(3, 1, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := p.Compare(65)
	if err != nil {
		t.Fatal(err)
	}
	lns, exs, ao, pco := plans[MethodLNS], plans[MethodEXS], plans[MethodAO], plans[MethodPCO]
	if !(lns.Throughput < exs.Throughput && exs.Throughput < ao.Throughput) {
		t.Fatalf("ordering violated: %v %v %v", lns.Throughput, exs.Throughput, ao.Throughput)
	}
	if pco.Throughput < ao.Throughput-1e-6 {
		t.Fatalf("PCO below AO: %v vs %v", pco.Throughput, ao.Throughput)
	}
	for m, plan := range plans {
		if !plan.Feasible {
			t.Fatalf("%s infeasible", m)
		}
		if plan.PeakC > 65+1e-3 {
			t.Fatalf("%s peak %.3f above threshold", m, plan.PeakC)
		}
		if plan.PeriodS <= 0 || len(plan.Cores) != 3 {
			t.Fatalf("%s plan malformed: %+v", m, plan)
		}
		// Per-core slices tile the period.
		for i, slices := range plan.Cores {
			var sum float64
			for _, sl := range slices {
				sum += sl.Seconds
			}
			if math.Abs(sum-plan.PeriodS) > 1e-9*plan.PeriodS {
				t.Fatalf("%s core %d slices sum to %v, period %v", m, i, sum, plan.PeriodS)
			}
		}
	}
	if _, err := p.Maximize(Method("nope"), 65); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestMinimizePeak(t *testing.T) {
	p, err := New(3, 1, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	plan, tmin, err := p.MinimizePeak(0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || plan.Throughput < 0.9-1e-9 {
		t.Fatalf("dual plan misses target: %+v", plan)
	}
	if tmin <= p.AmbientC() || tmin >= 65 {
		t.Fatalf("minimal threshold %.2f implausible (0.9 should be sustainable below 65 °C)", tmin)
	}
	if plan.PeakC > tmin+1e-3 {
		t.Fatalf("plan peak %.3f above the threshold it claims %.3f", plan.PeakC, tmin)
	}
	if _, _, err := p.MinimizePeak(0, 0.1); err == nil {
		t.Fatal("zero target must error")
	}
}

func TestIdealMethod(t *testing.T) {
	p, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Maximize(MethodIdeal, 65)
	if err != nil {
		t.Fatal(err)
	}
	volts, err := p.IdealVoltagesC(65)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range volts {
		mean += v
	}
	mean /= float64(len(volts))
	if math.Abs(plan.Throughput-mean) > 1e-9 {
		t.Fatalf("ideal throughput %v != mean voltage %v", plan.Throughput, mean)
	}
}

func TestVerifyPeakAndTrace(t *testing.T) {
	p, err := New(2, 1, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Maximize(MethodAO, 60)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := p.VerifyPeakC(plan, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(peak-plan.PeakC) > 0.05 {
		t.Fatalf("verified peak %.4f vs plan peak %.4f", peak, plan.PeakC)
	}
	tr, err := p.Trace(plan, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.TimeS) != 1+3*8 || len(tr.CoreTempC) != 2 {
		t.Fatalf("trace shape: %d samples, %d cores", len(tr.TimeS), len(tr.CoreTempC))
	}
	if tr.MaxC() > plan.PeakC+0.5 {
		t.Fatalf("transient trace exceeds stable peak substantially: %.3f vs %.3f", tr.MaxC(), plan.PeakC)
	}
	if tr.CoreTempC[0][0] != 35 {
		t.Fatalf("trace should start at ambient: %v", tr.CoreTempC[0][0])
	}
	if _, err := p.Trace(plan, 0, 8); err == nil {
		t.Fatal("invalid trace request must error")
	}
}

func TestTightThresholdDegradesToShutdown(t *testing.T) {
	p, err := New(3, 1, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	// 2 K above ambient: no active assignment fits, so EXS keeps every
	// core off (the paper's inactive mode) — feasible, zero throughput.
	plan, err := p.Maximize(MethodEXS, 37)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("all-off plan must be feasible")
	}
	if plan.Throughput != 0 {
		t.Fatalf("throughput = %v, want 0", plan.Throughput)
	}
	for _, slices := range plan.Cores {
		for _, sl := range slices {
			if sl.Voltage != 0 {
				t.Fatalf("expected all cores off: %+v", plan.Cores)
			}
		}
	}
	// An empty plan (no schedule) cannot be verified or traced.
	empty := &Plan{Method: MethodEXS}
	if _, err := p.VerifyPeakC(empty, 8); err == nil {
		t.Fatal("verifying a schedule-less plan must error")
	}
	if _, err := p.Trace(empty, 1, 1); err == nil {
		t.Fatal("tracing a schedule-less plan must error")
	}
}

func TestStackedLayersOption(t *testing.T) {
	p, err := New(3, 1, WithStackedLayers(2), WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCores() != 6 {
		t.Fatalf("stacked NumCores = %d, want 6", p.NumCores())
	}
	plan, err := p.Maximize(MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("stacked AO infeasible")
	}
	// The stack must be tighter than a planar part with equal core count.
	planar, err := New(3, 2, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := planar.Maximize(MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Throughput >= pp.Throughput {
		t.Fatalf("stacked %.4f should trail planar %.4f", plan.Throughput, pp.Throughput)
	}
	if _, err := New(3, 1, WithStackedLayers(0)); err == nil {
		t.Fatal("invalid layer count must error")
	}
	if _, err := New(3, 1, WithStackedLayers(2), WithCoreLevelModel()); err == nil {
		t.Fatal("stack + core-level must error")
	}
}

func TestCoreLevelModelOption(t *testing.T) {
	p, err := New(3, 1, WithCoreLevelModel(), WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Maximize(MethodAO, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("AO infeasible on core-level model")
	}
}

func TestTighterPackagingLowersThroughput(t *testing.T) {
	loose, err := New(3, 1, WithPaperLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := New(3, 1, WithPaperLevels(2), WithConvectionR(1.2))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := loose.Maximize(MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tight.Maximize(MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Throughput >= pl.Throughput {
		t.Fatalf("worse cooling should lower throughput: %v vs %v", pt.Throughput, pl.Throughput)
	}
}

func TestCoreScalesOption(t *testing.T) {
	p, err := New(2, 1, WithPaperLevels(2), WithCoreScales(1.6, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	volts, err := p.IdealVoltagesC(65)
	if err != nil {
		t.Fatal(err)
	}
	if volts[0] >= volts[1] {
		t.Fatalf("power-hungry core should get the lower ideal voltage: %v", volts)
	}
	plan, err := p.Maximize(MethodAO, 65)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("hetero AO infeasible")
	}
	if _, err := New(2, 1, WithCoreScales()); err == nil {
		t.Fatal("empty scales must error")
	}
	if _, err := New(2, 1, WithCoreScales(1.0)); err == nil {
		t.Fatal("scale count mismatch must error")
	}
	if _, err := New(2, 1, WithCoreScales(1, 1), WithStackedLayers(2)); err == nil {
		t.Fatal("scales + stack must error")
	}
	if _, err := New(2, 1, WithCoreScales(1, 1), WithCoreLevelModel()); err == nil {
		t.Fatal("scales + core-level must error")
	}
}

func TestAmbientOption(t *testing.T) {
	p, err := New(2, 1, WithAmbientC(25))
	if err != nil {
		t.Fatal(err)
	}
	if p.AmbientC() != 25 {
		t.Fatalf("AmbientC = %v", p.AmbientC())
	}
	// Cooler ambient leaves more headroom at the same absolute threshold.
	warm, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := p.Maximize(MethodAO, 60)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := warm.Maximize(MethodAO, 60)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Throughput < pw.Throughput-1e-9 {
		t.Fatalf("cooler ambient should not lower throughput: %v vs %v", pc.Throughput, pw.Throughput)
	}
}
