package governor

import (
	"fmt"
	"math"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// Predictive is a one-step model-predictive governor: it maintains a
// full-state observer of the thermal network (core entries corrected from
// the sensors each period, package nodes propagated open-loop) and picks
// the highest uniform level whose PREDICTED peak over the next control
// interval stays below Tmax − Guard. It is the strongest online baseline
// here — it uses the same exact model as the offline schedulers — yet it
// still trails AO: deciding one uniform level per sensor period cannot
// shape the sub-interval high/low oscillation the offline schedule uses
// to ride the constraint.
type Predictive struct {
	md     *thermal.Model
	levels *power.LevelSet
	// TmaxC is the absolute threshold; GuardK the safety margin the
	// prediction must respect (absorbs sensor noise re-injected through
	// the observer correction).
	TmaxC  float64
	GuardK float64
	// HorizonS is the prediction horizon; set it to the sensor period.
	// A non-positive horizon degenerates to "hold the current levels" —
	// there is nothing to predict over a zero-length interval.
	HorizonS float64
	// LatencyS models the DVFS actuation delay: a commanded change only
	// takes effect LatencyS seconds into the interval, with the stall
	// window burning power at the HIGHER of the outgoing and incoming
	// voltages (the internal/actuator convention). When LatencyS exceeds
	// the control period — slow rails against a fast loop, the boundary
	// this field exists for — the prediction window extends to
	// LatencyS + HorizonS so a candidate's post-transition behaviour is
	// evaluated instead of staying invisible beyond the horizon: without
	// the extension every candidate predicts only its stall phase, the
	// check trivially passes at the hottest rail voltage, and the
	// governor pins the top level while the plant overheats LatencyS
	// seconds later. Zero preserves the classic instantaneous-actuation
	// prediction bit-for-bit.
	LatencyS float64

	state []float64 // full-node temperature-rise estimate
	held
}

// NewPredictive builds the governor for the given model and level set
// with instantaneous actuation; set LatencyS afterwards for slow rails.
func NewPredictive(md *thermal.Model, levels *power.LevelSet, tmaxC, guardK, horizonS float64) *Predictive {
	return &Predictive{
		md:     md,
		levels: levels,
		TmaxC:  tmaxC, GuardK: guardK, HorizonS: horizonS,
		state: md.ZeroState(),
	}
}

// Name implements rig.Controller.
func (g *Predictive) Name() string { return "predictive" }

// SeedState initializes the observer's full-node temperature-rise
// estimate, for attaching the governor to an already-hot chip. The
// sensed-core correction in Decide cannot see hidden package nodes, so a
// cold-started observer under-predicts a hot plant for a package time
// constant and over-clocks it the whole while; seeding from the known
// regime removes that transient. The slice is copied and must match the
// model's node count.
func (g *Predictive) SeedState(rise []float64) error {
	if len(rise) != len(g.state) {
		return fmt.Errorf("governor: seed state has %d nodes, model has %d", len(rise), len(g.state))
	}
	copy(g.state, rise)
	return nil
}

// Decide implements rig.Controller.
func (g *Predictive) Decide(_ float64, sensedC []float64, applied []int) {
	next := make([]int, len(applied))
	if g.HorizonS <= 0 || math.IsNaN(g.HorizonS) {
		copy(next, applied) // zero-length interval: nothing to predict
		g.want = next
		return
	}
	// Observer correction: trust the sensors at the core nodes.
	for i := range sensedC {
		g.state[i] = math.Max(0, g.md.Rise(sensedC[i]))
	}
	budget := g.md.Rise(g.TmaxC) - g.GuardK

	// The stall burns at the higher of the two rails; use the hottest
	// currently-applied voltage as the outgoing side.
	var curV float64
	for _, l := range applied {
		if l >= 0 && g.levels.Mode(l).Voltage > curV {
			curV = g.levels.Mode(l).Voltage
		}
	}
	latency := g.LatencyS
	if latency < 0 || math.IsNaN(latency) {
		latency = 0
	}

	modes := make([]power.Mode, len(sensedC))
	stallModes := make([]power.Mode, len(sensedC))
	chosen := 0
	var chosenState []float64
	for k := g.levels.Len() - 1; k >= 0; k-- {
		cand := g.levels.Mode(k)
		for i := range modes {
			modes[i] = cand
		}
		base := g.state
		peak := math.Inf(-1)
		if latency > 0 && cand.Voltage != curV {
			// Phase A: the rail settles for LatencyS at the stall
			// voltage; check its midpoint and end like the main phase.
			for i := range stallModes {
				stallModes[i] = power.NewMode(math.Max(curV, cand.Voltage))
			}
			sm := g.md.Step(latency/2, base, stallModes)
			se := g.md.Step(latency/2, sm, stallModes)
			pm, _ := mat.VecMax(g.md.CoreTemps(sm))
			pe, _ := mat.VecMax(g.md.CoreTemps(se))
			peak = math.Max(pm, pe)
			base = se
		}
		// Phase B: the candidate level for a full horizon past the
		// transition (the midpoint guards fast die-node overshoot).
		mid := g.md.Step(g.HorizonS/2, base, modes)
		end := g.md.Step(g.HorizonS/2, mid, modes)
		pm, _ := mat.VecMax(g.md.CoreTemps(mid))
		pe, _ := mat.VecMax(g.md.CoreTemps(end))
		peak = math.Max(peak, math.Max(pm, pe))
		if peak <= budget || k == 0 {
			chosen = k
			if latency > 0 && cand.Voltage != curV {
				// Observer: the next control period really is a stall of
				// min(latency, period) followed by the remainder at the
				// chosen level.
				stall := math.Min(latency, g.HorizonS)
				adv := g.md.Step(stall, g.state, stallModes)
				if rem := g.HorizonS - stall; rem > 0 {
					adv = g.md.Step(rem, adv, modes)
				}
				chosenState = adv
			} else {
				chosenState = end
			}
			break
		}
	}
	// Advance the observer with the decision actually taken.
	g.state = chosenState

	for i := range next {
		next[i] = chosen
	}
	g.want = next
}
