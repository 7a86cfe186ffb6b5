package sim

import (
	"fmt"

	"thermosc/internal/mat"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

// Trace is a sampled temperature trajectory. Temps[k] holds the full node
// state (temperature rise above ambient) at Times[k].
type Trace struct {
	Times []float64
	Temps [][]float64
}

// CoreSeries extracts core i's absolute temperature series in °C.
func (tr *Trace) CoreSeries(md *thermal.Model, i int) []float64 {
	out := make([]float64, len(tr.Times))
	for k, t := range tr.Temps {
		out[k] = md.Absolute(t[i])
	}
	return out
}

// Transient simulates nPeriods repetitions of sched from state t0 with the
// exact closed-form solution, sampling samplesPerPeriod points per period
// (plus the initial point).
func Transient(md *thermal.Model, sched *schedule.Schedule, t0 []float64, nPeriods, samplesPerPeriod int) *Trace {
	if nPeriods < 1 || samplesPerPeriod < 1 {
		panic(fmt.Sprintf("sim: Transient with nPeriods=%d samples=%d", nPeriods, samplesPerPeriod))
	}
	ivs := sched.Intervals()
	tinfs := make([][]float64, len(ivs))
	for q, iv := range ivs {
		tinfs[q] = md.SteadyState(iv.Modes)
	}
	tp := sched.Period()
	dt := tp / float64(samplesPerPeriod)

	tr := &Trace{
		Times: []float64{0},
		Temps: [][]float64{mat.VecClone(t0)},
	}
	state := mat.VecClone(t0)
	for p := 0; p < nPeriods; p++ {
		base := float64(p) * tp
		q := 0            // current interval
		var ivAcc float64 // time already consumed in the current interval
		startOfIv := state
		for k := 1; k <= samplesPerPeriod; k++ {
			target := float64(k) * dt
			// Advance whole intervals that end before the sample point.
			for q < len(ivs)-1 && ivAcc+ivs[q].Length <= target+1e-15 {
				startOfIv = md.StepToward(ivs[q].Length-(0), startOfIv, tinfs[q])
				// We stepped from the interval start; account for any
				// partial progress made within it by earlier samples.
				ivAcc += ivs[q].Length
				q++
			}
			st := md.StepToward(target-ivAcc, startOfIv, tinfs[q])
			tr.Times = append(tr.Times, base+target)
			tr.Temps = append(tr.Temps, st)
		}
		// State at the end of the period: finish the remaining intervals.
		state = startOfIv
		for ; q < len(ivs); q++ {
			rem := ivs[q].Length
			if q == len(ivs)-1 {
				rem = tp - ivAcc
			}
			state = md.StepToward(rem, state, tinfs[q])
			ivAcc += ivs[q].Length
		}
	}
	return tr
}
