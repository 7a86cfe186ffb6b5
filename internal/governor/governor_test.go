package governor_test

import (
	"testing"

	"thermosc/internal/governor"
	"thermosc/internal/power"
	"thermosc/internal/rig"
	"thermosc/internal/thermal"
)

func testSetup(t testing.TB) (*thermal.Model, *power.LevelSet) {
	t.Helper()
	md, err := thermal.Default(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	return md, ls
}

// noisy is commodity on-die diode telemetry: ±1 K (1σ) read noise and
// 1 K quantization.
var noisy = rig.SensorFaults{NoiseStdK: 1, QuantStepK: 1}

// runRig drives ctrl in closed loop on the rig's default 3×1, two-level
// plant (the testSetup platform), starting from ambient with every core
// at the top level. The sensor is read every stepS seconds through the
// given faults, and the plant integrates subSteps substeps per read. A
// 0.01 K guard band makes ViolationS the time above the 65 °C Tmax.
func runRig(t *testing.T, ctrl rig.Controller, stepS, horizonS float64, subSteps int, sensor rig.SensorFaults, seed int64) *rig.Report {
	t.Helper()
	r, err := rig.New(&rig.Scenario{
		Seed: seed, TmaxC: 65, GuardK: 0.01,
		HorizonS: horizonS, StepS: stepS, SubSteps: subSteps, Sensor: sensor,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// decide runs one control step of ctrl and returns the levels it wants.
func decide(ctrl rig.Controller, sensedC []float64, applied []int) []int {
	ctrl.Decide(0, sensedC, applied)
	out := make([]int, len(applied))
	ctrl.Want(0, out)
	return out
}

func TestStepWiseRegulatesNearTrip(t *testing.T) {
	_, ls := testSetup(t)
	pol := &governor.StepWise{TripC: 65, HystK: 3, Levels: ls.Len()}
	rep := runRig(t, pol, 10e-3, 60, 4, rig.SensorFaults{}, 1)
	// With a noiseless sensor the governor should hold temperatures in a
	// band around the trip point and achieve intermediate throughput.
	if rep.TruePeakC < 60 || rep.TruePeakC > 72 {
		t.Fatalf("true peak %.2f outside the regulation band", rep.TruePeakC)
	}
	if rep.Throughput <= 0.6 || rep.Throughput >= 1.3 {
		t.Fatalf("throughput %.4f not intermediate", rep.Throughput)
	}
	if rep.Transitions == 0 {
		t.Fatal("step-wise governor should switch levels")
	}
	if rep.Controller != "step-wise" {
		t.Fatalf("policy name %q", rep.Controller)
	}
}

func TestStepWiseReactsAfterTheFact(t *testing.T) {
	_, ls := testSetup(t)
	// Trip AT the threshold: a reactive governor only throttles after
	// crossing, so true violations are structural, not sensor artifacts.
	pol := &governor.StepWise{TripC: 65, HystK: 2, Levels: ls.Len()}
	rep := runRig(t, pol, 50e-3, 60, 4, rig.SensorFaults{}, 1)
	if rep.TruePeakC <= 65 {
		t.Fatalf("expected the reactive governor to overshoot the cap, peak %.3f", rep.TruePeakC)
	}
	if rep.ViolationS <= 0 {
		t.Fatal("expected nonzero violation time")
	}
}

func TestGuardBandTradesThroughput(t *testing.T) {
	_, ls := testSetup(t)
	tight := runRig(t, &governor.StepWise{TripC: 65, HystK: 2, Levels: ls.Len()},
		10e-3, 60, 4, rig.SensorFaults{}, 1)
	guarded := runRig(t, &governor.StepWise{TripC: 60, HystK: 2, Levels: ls.Len()},
		10e-3, 60, 4, rig.SensorFaults{}, 1)
	if guarded.ViolationS > tight.ViolationS {
		t.Fatalf("guard band should reduce violations: %v vs %v",
			guarded.ViolationS, tight.ViolationS)
	}
	if guarded.Throughput >= tight.Throughput {
		t.Fatalf("guard band should cost throughput: %v vs %v",
			guarded.Throughput, tight.Throughput)
	}
}

func TestOnOffOscillatesCrudely(t *testing.T) {
	_, ls := testSetup(t)
	pol := &governor.OnOff{TripC: 64, ResumeC: 65 - 8, Levels: ls.Len()}
	rep := runRig(t, pol, 10e-3, 60, 4, rig.SensorFaults{}, 1)
	if rep.Transitions == 0 {
		t.Fatal("on-off governor should bang between levels")
	}
	if rep.Throughput <= 0.6 {
		t.Fatalf("on-off throughput %.4f should beat the floor", rep.Throughput)
	}
}

func TestPIHoldsSetpoint(t *testing.T) {
	_, ls := testSetup(t)
	pol := governor.NewPI(62, 0.05, 0.002, ls)
	rep := runRig(t, pol, 10e-3, 120, 4, rig.SensorFaults{}, 1)
	if rep.TruePeakC > 68 {
		t.Fatalf("PI lost control: peak %.2f", rep.TruePeakC)
	}
	if rep.Throughput <= 0.6 {
		t.Fatalf("PI throughput %.4f too low", rep.Throughput)
	}
	if rep.Controller != "PI" {
		t.Fatalf("policy name %q", rep.Controller)
	}
}

func TestSensorNoiseCausesViolationsAtTightTrips(t *testing.T) {
	_, ls := testSetup(t)
	pol := &governor.StepWise{TripC: 65, HystK: 1, Levels: ls.Len()}
	rep := runRig(t, pol, 10e-3, 60, 4, noisy, 42)
	if rep.TruePeakC <= 65 {
		t.Fatalf("noisy reactive control at a tight trip should overshoot; peak %.3f", rep.TruePeakC)
	}
}

func TestPIAntiWindup(t *testing.T) {
	ls := power.MustLevelSet(0.6, 1.3)
	pol := governor.NewPI(60, 0.05, 0.01, ls)
	// Feed a long stretch of cold readings; the integrator must clamp so
	// a subsequent hot reading still drops the command promptly.
	cur := []int{1, 1}
	for k := 0; k < 10000; k++ {
		decide(pol, []float64{35, 35}, cur)
	}
	// Now a severe overshoot: command must fall to the bottom level in a
	// bounded number of steps.
	steps := 0
	for ; steps < 200; steps++ {
		next := decide(pol, []float64{95, 95}, cur)
		if next[0] == 0 {
			break
		}
	}
	if steps >= 200 {
		t.Fatal("integrator wind-up: PI failed to throttle after saturation")
	}
}
