package actuator

import (
	"fmt"
	"math"
	"testing"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

func seg(l, v float64) schedule.Segment {
	return schedule.Segment{Length: l, Mode: power.NewMode(v)}
}

func TestCompileCommandStream(t *testing.T) {
	s := schedule.Must([][]schedule.Segment{
		{seg(1, 0.6), seg(1, 1.3)}, // switches at 0 (wrap) and at 1
		{seg(2, 0.8)},              // constant
	})
	cmds := Compile(s)
	// Core 0: command at t=0 (1.3→0.6 wrap) and t=1 (0.6→1.3);
	// core 1: one boot command.
	if len(cmds) != 3 {
		t.Fatalf("commands = %v", cmds)
	}
	if cmds[0].At != 0 || cmds[0].Core != 0 || cmds[0].Voltage != 0.6 {
		t.Fatalf("first command %v", cmds[0])
	}
	if cmds[1].At != 0 || cmds[1].Core != 1 || cmds[1].Voltage != 0.8 {
		t.Fatalf("second command %v", cmds[1])
	}
	if cmds[2].At != 1 || cmds[2].Core != 0 || cmds[2].Voltage != 1.3 {
		t.Fatalf("third command %v", cmds[2])
	}
}

func TestExecuteAccountsStalls(t *testing.T) {
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := power.TransitionOverhead{Tau: 1e-3}
	s := schedule.Must([][]schedule.Segment{
		{seg(10e-3, 0.6), seg(10e-3, 1.3)},
		{seg(20e-3, 0.8)},
	})
	rep, err := Execute(md, s, o)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 pays 2 transitions (wrap + mid), each stalling 1 ms.
	if rep.Transitions != 2 {
		t.Fatalf("transitions = %d", rep.Transitions)
	}
	if math.Abs(rep.StallTime[0]-2e-3) > 1e-12 || rep.StallTime[1] != 0 {
		t.Fatalf("stall times %v", rep.StallTime)
	}
	// Lost work: 1 ms at 0.6 + 1 ms at 1.3 = 1.9e-3 work units.
	wantLost := 1e-3*0.6 + 1e-3*1.3
	if math.Abs((rep.PlannedWork-rep.ExecutedWork)-wantLost) > 1e-12 {
		t.Fatalf("lost work %v, want %v", rep.PlannedWork-rep.ExecutedWork, wantLost)
	}
	if rep.PeakC <= md.Package().AmbientC {
		t.Fatalf("peak %v", rep.PeakC)
	}
	thr := rep.ExecutedThroughput(2, s.Period())
	if thr <= 0 || thr >= rep.PlannedWork/(2*s.Period()) {
		t.Fatalf("executed throughput %v", thr)
	}
}

func TestExecuteZeroOverheadIsLossless(t *testing.T) {
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Must([][]schedule.Segment{
		{seg(10e-3, 0.6), seg(10e-3, 1.3)},
		{seg(20e-3, 0.8)},
	})
	rep, err := Execute(md, s, power.TransitionOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecutedWork != rep.PlannedWork {
		t.Fatalf("free transitions must be lossless: %v vs %v", rep.ExecutedWork, rep.PlannedWork)
	}
	if rep.Transitions != 2 {
		t.Fatalf("transitions = %d", rep.Transitions)
	}
}

// The end-to-end honesty check: an AO plan, executed with the very stalls
// it budgeted for, completes at least its claimed useful throughput and
// stays under the threshold.
func TestAOPlanSurvivesExecution(t *testing.T) {
	md, err := thermal.Default(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	o := power.DefaultOverhead()
	p := solver.Problem{Model: md, Levels: ls, TmaxC: 65, Overhead: o}
	ao, err := solver.AO(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(md, ao.Schedule, o)
	if err != nil {
		t.Fatal(err)
	}
	executed := rep.ExecutedThroughput(3, ao.Schedule.Period())
	if executed < ao.Throughput-1e-6 {
		t.Fatalf("executed %v below claimed %v", executed, ao.Throughput)
	}
	// The paper's per-transition loss model is conservative; executing
	// should not overshoot the claim by more than the compensation slack.
	if executed > ao.Throughput*1.05 {
		t.Fatalf("executed %v implausibly above claimed %v", executed, ao.Throughput)
	}
	if rep.PeakC > 65+0.1 {
		t.Fatalf("executed peak %.3f violates the cap", rep.PeakC)
	}

	// A NAIVE plan (nominal ratios, no overhead extension) loses work.
	pNaive := p
	pNaive.Overhead = power.TransitionOverhead{}
	naive, err := solver.AO(pNaive)
	if err != nil {
		t.Fatal(err)
	}
	repNaive, err := Execute(md, naive.Schedule, o)
	if err != nil {
		t.Fatal(err)
	}
	execNaive := repNaive.ExecutedThroughput(3, naive.Schedule.Period())
	if execNaive >= naive.Throughput {
		t.Fatalf("unbudgeted stalls should cost work: %v vs claim %v", execNaive, naive.Throughput)
	}
}

// PCO's phase-shifted plans rely on the same rotation-invariance
// certificate; execute one and confirm it too stays within its budget.
func TestPCOPlanSurvivesExecution(t *testing.T) {
	md, err := thermal.Default(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	o := power.DefaultOverhead()
	p := solver.Problem{Model: md, Levels: ls, TmaxC: 65, Overhead: o}
	pco, err := solver.PCO(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(md, pco.Schedule, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakC > 65+0.1 {
		t.Fatalf("executed PCO peak %.3f violates the cap", rep.PeakC)
	}
	executed := rep.ExecutedThroughput(3, pco.Schedule.Period())
	if executed < pco.Throughput-1e-6 {
		t.Fatalf("executed %v below PCO claim %v", executed, pco.Throughput)
	}
}

func TestExecutedSpeedProfiles(t *testing.T) {
	s := schedule.Must([][]schedule.Segment{
		{seg(10e-3, 0.6), seg(10e-3, 1.3)},
		{seg(20e-3, 0.8)},
	})
	o := power.TransitionOverhead{Tau: 1e-3}
	profiles, err := ExecutedSpeedProfiles(s, o)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0: [stall 1ms, 0.6 for 9ms, stall 1ms, 1.3 for 9ms].
	if len(profiles[0]) != 4 {
		t.Fatalf("core0 profile %v", profiles[0])
	}
	if profiles[0][0].Speed != 0 || profiles[0][0].Length != 1e-3 {
		t.Fatalf("first slice %v", profiles[0][0])
	}
	if profiles[0][1].Speed != 0.6 || math.Abs(profiles[0][1].Length-9e-3) > 1e-12 {
		t.Fatalf("second slice %v", profiles[0][1])
	}
	// Core 1 constant: single full-speed slice.
	if len(profiles[1]) != 1 || profiles[1][0].Speed != 0.8 {
		t.Fatalf("core1 profile %v", profiles[1])
	}
}

func TestReplayColdStartStaysUnderStablePeak(t *testing.T) {
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Must([][]schedule.Segment{
		{seg(10e-3, 0.6), seg(10e-3, 1.3)},
		{seg(10e-3, 1.3), seg(10e-3, 0.6)},
	})
	o := power.TransitionOverhead{Tau: 100e-6}
	rep, err := Execute(md, s, o)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Replay(md, s, o, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cold > rep.PeakC+0.1 {
		t.Fatalf("cold start %.3f exceeds stable peak %.3f", cold, rep.PeakC)
	}
}

func TestExecuteDimensionMismatch(t *testing.T) {
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Must([][]schedule.Segment{{seg(1, 0.6)}})
	if _, err := Execute(md, s, power.TransitionOverhead{}); err == nil {
		t.Fatal("core count mismatch must error")
	}
}

// Replay simulates nPeriods of the EXECUTED timeline from ambient and
// returns the hottest observed core temperature — a cold-start check that
// complements the stable-status peak in ExecReport.
func Replay(md *thermal.Model, s *schedule.Schedule, o power.TransitionOverhead, nPeriods int) (float64, error) {
	if s.NumCores() != md.NumCores() {
		return 0, fmt.Errorf("actuator: schedule has %d cores, model %d", s.NumCores(), md.NumCores())
	}
	exec, _, err := buildExecuted(s, o)
	if err != nil {
		return 0, err
	}
	tr := sim.Transient(md, exec, md.ZeroState(), nPeriods, 8)
	peak := math.Inf(-1)
	for _, state := range tr.Temps {
		if p, _ := mat.VecMax(md.CoreTemps(state)); p > peak {
			peak = p
		}
	}
	return md.Absolute(peak), nil
}
