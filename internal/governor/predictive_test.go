package governor_test

import (
	"testing"

	"thermosc/internal/governor"
	"thermosc/internal/power"
	"thermosc/internal/rig"
	"thermosc/internal/thermal"
)

func TestPredictiveHoldsConstraintWithCleanSensors(t *testing.T) {
	md, ls := testSetup(t)
	pol := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
	rep := runRig(t, pol, 10e-3, 120, 4, rig.SensorFaults{}, 1)
	if rep.TruePeakC > 65.05 {
		t.Fatalf("predictive governor violated the cap: %.3f", rep.TruePeakC)
	}
	if frac := rep.ViolationS / rep.HorizonS; frac > 0.001 {
		t.Fatalf("violation fraction %.4f", frac)
	}
	if rep.Throughput <= 0.6 {
		t.Fatalf("predictive throughput %.4f too low", rep.Throughput)
	}
	if rep.Controller != "predictive" {
		t.Fatalf("name %q", rep.Controller)
	}
}

func TestPredictiveBeatsGuardedStepWise(t *testing.T) {
	md, ls := testSetup(t)
	pred := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
	resPred := runRig(t, pred, 10e-3, 120, 4, rig.SensorFaults{}, 1)
	guarded := &governor.StepWise{TripC: 60, HystK: 2, Levels: ls.Len()}
	resStep := runRig(t, guarded, 10e-3, 120, 4, rig.SensorFaults{}, 1)
	// The model-based governor should ride closer to the cap than a
	// blind step-wise with a 5 K guard band — higher throughput, no
	// violations.
	if resPred.Throughput <= resStep.Throughput {
		t.Fatalf("predictive %.4f should beat guarded step-wise %.4f",
			resPred.Throughput, resStep.Throughput)
	}
}

func TestPredictiveSurvivesNoisySensors(t *testing.T) {
	md, ls := testSetup(t)
	pol := governor.NewPredictive(md, ls, 65, 2.0, 10e-3) // guard sized to the noise
	rep := runRig(t, pol, 10e-3, 120, 4, noisy, 42)
	if frac := rep.ViolationS / rep.HorizonS; frac > 0.02 {
		t.Fatalf("noisy predictive violations %.4f beyond budget", frac)
	}
}

func TestPredictiveFallsBackToFloor(t *testing.T) {
	md, ls := testSetup(t)
	// Impossibly tight budget: the governor must settle at the lowest
	// level rather than panic.
	pol := governor.NewPredictive(md, ls, 36, 0.5, 10e-3)
	rep := runRig(t, pol, 10e-3, 30, 2, rig.SensorFaults{}, 1)
	if rep.Throughput > 0.6+1e-9 {
		t.Fatalf("expected floor throughput, got %.4f", rep.Throughput)
	}
}

func TestPredictiveDegenerateHorizonHoldsCurrent(t *testing.T) {
	md, ls := testSetup(t)
	cases := []struct {
		name     string
		horizonS float64
	}{
		{"zero", 0},
		{"negative", -1e-3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := governor.NewPredictive(md, ls, 65, 0.5, tc.horizonS)
			cur := []int{1, 0, -1}
			got := decide(pol, []float64{50, 50, 50}, cur)
			for i := range cur {
				if got[i] != cur[i] {
					t.Fatalf("zero-length interval must hold: core %d got %d want %d", i, got[i], cur[i])
				}
			}
			// The hold must not alias the caller's slice.
			cur[0] = 99
			pol.Want(0, got)
			if got[0] == 99 {
				t.Fatal("Decide aliased the applied-levels slice")
			}
		})
	}
}

func TestPredictiveSingleModePlatform(t *testing.T) {
	md, err := thermal.Default(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.NewLevelSet(1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, latency := range []float64{0, 5e-3, 50e-3} {
		pol := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
		pol.LatencyS = latency
		// Cool die: the only level is feasible and must be chosen.
		got := decide(pol, []float64{45, 45, 45}, []int{0, 0, 0})
		for i, l := range got {
			if l != 0 {
				t.Fatalf("latency %v: core %d got level %d, single-mode platform has only 0", latency, i, l)
			}
		}
		// Scorching die: level 0 is still the floor — the governor must
		// settle there, not panic or index out of range.
		got = decide(pol, []float64{80, 80, 80}, []int{0, 0, 0})
		for i, l := range got {
			if l != 0 {
				t.Fatalf("latency %v hot: core %d got %d", latency, i, l)
			}
		}
	}
}

func TestPredictiveZeroLatencyMatchesClassic(t *testing.T) {
	md, ls := testSetup(t)
	a := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
	b := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
	b.LatencyS = 0
	sensed := []float64{52, 54, 53}
	cur := []int{1, 1, 1}
	for step := 0; step < 25; step++ {
		ga := decide(a, sensed, cur)
		gb := decide(b, sensed, cur)
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("step %d: zero latency diverged from classic: %v vs %v", step, ga, gb)
			}
		}
		cur = ga
		for i := range sensed {
			sensed[i] += 0.1 // drift upward so the decision eventually flips
		}
	}
}

// TestPredictiveLatencyBeyondPeriod is the boundary the LatencyS field
// exists for: the DVFS rail takes several control periods to settle, so a
// candidate's post-transition heat is invisible inside a naive horizon.
// The latency-aware prediction must stay conservative — no more optimistic
// near the cap than the instantaneous-actuation governor — and must never
// let the closed loop violate the constraint.
func TestPredictiveLatencyBeyondPeriod(t *testing.T) {
	md, ls := testSetup(t)
	cases := []struct {
		name     string
		latencyS float64
	}{
		{"half-period", 5e-3},
		{"one-period", 10e-3},
		{"three-periods", 30e-3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
			pol.LatencyS = tc.latencyS
			rep := runRig(t, pol, 10e-3, 120, 4, rig.SensorFaults{}, 1)
			if rep.TruePeakC > 65.1 {
				t.Fatalf("latency %v: predictive peak %.3f violates the cap", tc.latencyS, rep.TruePeakC)
			}
			if rep.Throughput <= 0.5 {
				t.Fatalf("latency %v: throughput %.4f collapsed", tc.latencyS, rep.Throughput)
			}
		})
	}
}

// Near the cap with a slow rail the latency-aware governor must not pick a
// HIGHER level than the instantaneous one: the stall phase burns at the
// max of the two voltages, so feasibility can only shrink.
func TestPredictiveLatencyIsConservative(t *testing.T) {
	md, ls := testSetup(t)
	for _, sensedPeak := range []float64{58, 60, 62, 64, 64.8} {
		fast := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
		slow := governor.NewPredictive(md, ls, 65, 0.5, 10e-3)
		slow.LatencyS = 25e-3
		sensed := []float64{sensedPeak - 1, sensedPeak, sensedPeak - 0.5}
		cur := []int{0, 0, 0}
		gf := decide(fast, sensed, cur)
		gs := decide(slow, sensed, cur)
		if gs[0] > gf[0] {
			t.Fatalf("sensed %.1f: slow rail picked level %d above instantaneous %d",
				sensedPeak, gs[0], gf[0])
		}
	}
}

// A governor attached to an already-hot chip cannot learn the hidden
// package temperatures from its core sensors: the observer correction
// only touches core nodes, so a cold-started observer under-predicts and
// over-clocks a hot plant for a package time constant. SeedState closes
// that hole — the seeded governor throttles where the cold one picks the
// top level at the very same sensor readings.
func TestPredictiveSeedState(t *testing.T) {
	md, ls := testSetup(t)
	n := md.NumCores()

	// Heat the plant at the top level until the core peak sits just
	// below the prediction budget: the cores alone look safe, the hot
	// package underneath does not.
	modes := make([]power.Mode, n)
	for i := range modes {
		modes[i] = ls.Mode(ls.Len() - 1)
	}
	budget := 65.0 - 0.5
	hot := md.ZeroState()
	for i := 0; i < 4000; i++ {
		next := md.Step(0.1, hot, modes)
		peak := 0.0
		for _, r := range md.CoreTemps(next) {
			if md.Absolute(r) > peak {
				peak = md.Absolute(r)
			}
		}
		if peak > budget-0.1 {
			break
		}
		hot = next
	}
	sensedC := make([]float64, n)
	for i, r := range md.CoreTemps(hot) {
		sensedC[i] = md.Absolute(r)
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = ls.Len() - 1
	}

	// A 1 s horizon makes the divergence visible in ONE decision: from
	// the true (hot-package) state the cores climb ~0.3 K/s through the
	// budget, from a cold-package state the model predicts them falling.
	cold := governor.NewPredictive(md, ls, 65, 0.5, 1.0)
	seeded := governor.NewPredictive(md, ls, 65, 0.5, 1.0)
	if err := seeded.SeedState(make([]float64, 1)); err == nil {
		t.Fatal("want dimension-mismatch error from SeedState")
	}
	if err := seeded.SeedState(hot); err != nil {
		t.Fatal(err)
	}

	a := decide(cold, sensedC, cur)
	b := decide(seeded, sensedC, cur)
	if a[0] != ls.Len()-1 {
		t.Fatalf("cold observer should stay optimistic at level %d, picked %d", ls.Len()-1, a[0])
	}
	if b[0] >= a[0] {
		t.Fatalf("seeded observer picked level %d, cold %d — seeding changed nothing", b[0], a[0])
	}
}
