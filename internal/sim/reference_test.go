package sim

import (
	"fmt"

	"thermosc/internal/mat"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

// References the tests check the closed-form paths against.

// PeriodEnd propagates the state t0 through exactly one period of sched
// using the closed-form per-interval solution and returns the state at the
// end of the period.
func PeriodEnd(md *thermal.Model, sched *schedule.Schedule, t0 []float64) []float64 {
	state := mat.VecClone(t0)
	for _, iv := range sched.Intervals() {
		state = md.Step(iv.Length, state, iv.Modes)
	}
	return state
}

// PeakAtIntervalEnds returns the hottest core temperature over all
// interval boundaries in the stable status (the classic "scheduling
// points" heuristic, exact for single cores but not for multi-core
// platforms — see paper §IV).
func (s *Stable) PeakAtIntervalEnds() (peak float64, core int) {
	peak, core = mat.VecMax(s.md.CoreTemps(s.start))
	for _, end := range s.ends {
		if p, c := mat.VecMax(s.md.CoreTemps(end)); p > peak {
			peak, core = p, c
		}
	}
	return peak, core
}

// RK4 simulates nPeriods of sched from t0 with a fixed-step fourth-order
// Runge-Kutta integration of dT/dt = A·T + B(v), the numerical reference
// ("HotSpot-lite") that TestRK4MatchesClosedForm checks the closed-form
// solution against; dt must resolve the fastest time constant.
func RK4(md *thermal.Model, sched *schedule.Schedule, t0 []float64, nPeriods int, dt float64) *Trace {
	if dt <= 0 || nPeriods < 1 {
		panic(fmt.Sprintf("sim: RK4 with dt=%v nPeriods=%d", dt, nPeriods))
	}
	a := md.A()
	ivs := sched.Intervals()
	bvecs := make([][]float64, len(ivs))
	for q, iv := range ivs {
		bvecs[q] = md.BVec(iv.Modes)
	}
	deriv := func(state, b []float64) []float64 {
		d := a.MulVec(state)
		return mat.VecAddInPlace(d, b)
	}
	rkStep := func(state, b []float64, h float64) []float64 {
		k1 := deriv(state, b)
		k2 := deriv(mat.VecAXPY(mat.VecClone(state), h/2, k1), b)
		k3 := deriv(mat.VecAXPY(mat.VecClone(state), h/2, k2), b)
		k4 := deriv(mat.VecAXPY(mat.VecClone(state), h, k3), b)
		out := mat.VecClone(state)
		mat.VecAXPY(out, h/6, k1)
		mat.VecAXPY(out, h/3, k2)
		mat.VecAXPY(out, h/3, k3)
		mat.VecAXPY(out, h/6, k4)
		return out
	}

	tr := &Trace{Times: []float64{0}, Temps: [][]float64{mat.VecClone(t0)}}
	state := mat.VecClone(t0)
	now := 0.0
	for p := 0; p < nPeriods; p++ {
		for q, iv := range ivs {
			remaining := iv.Length
			for remaining > 1e-15 {
				h := dt
				if h > remaining {
					h = remaining
				}
				state = rkStep(state, bvecs[q], h)
				remaining -= h
				now += h
			}
			tr.Times = append(tr.Times, now)
			tr.Temps = append(tr.Temps, mat.VecClone(state))
		}
	}
	return tr
}
