// Package governor implements reactive (online) dynamic thermal
// management baselines — the class of techniques the paper's introduction
// contrasts against its proactive approach: policies that observe
// temperature sensors at run time and throttle after the fact. They are
// flexible but, as the paper notes, "there is no guarantee of avoiding
// peak temperature violations or maximizing throughputs" because they
// depend on sensor accuracy and sampling latency.
//
// Every governor is an internal/rig Controller: the rig calls Decide once
// per control step with the sensed absolute core temperatures and the
// applied level indices (ascending into the LevelSet, -1 = off), and the
// levels Decide chose hold for the whole step. The rig's plant supplies
// the sensor faults and records the true temperature trajectory, so
// violation statistics are honest.
package governor

import (
	"math"

	"thermosc/internal/mat"
	"thermosc/internal/power"
)

// held keeps the per-core levels a governor chose at its last Decide.
type held struct{ want []int }

// Want implements rig.Controller: the levels chosen at the last Decide.
// Before the first Decide it leaves out unchanged.
func (h *held) Want(_ float64, out []int) { copy(out, h.want) }

// StepWise mimics the Linux "step_wise" thermal governor: a core above
// TripC steps one level down each control period; a core below
// TripC − HystK steps one level up.
type StepWise struct {
	TripC  float64
	HystK  float64
	Levels int // number of available levels
	held
}

// Name implements rig.Controller.
func (g *StepWise) Name() string { return "step-wise" }

// Decide implements rig.Controller.
func (g *StepWise) Decide(_ float64, sensedC []float64, applied []int) {
	next := make([]int, len(applied))
	for i, cur := range applied {
		switch {
		case sensedC[i] > g.TripC && cur > -1:
			next[i] = cur - 1
		case sensedC[i] < g.TripC-g.HystK && cur < g.Levels-1:
			next[i] = cur + 1
		default:
			next[i] = cur
		}
	}
	g.want = next
}

// OnOff is the crude clamp governor: a core above TripC drops to the
// lowest level; once it cools below ResumeC it jumps back to the highest.
type OnOff struct {
	TripC   float64
	ResumeC float64
	Levels  int
	held
}

// Name implements rig.Controller.
func (g *OnOff) Name() string { return "on-off" }

// Decide implements rig.Controller.
func (g *OnOff) Decide(_ float64, sensedC []float64, applied []int) {
	next := make([]int, len(applied))
	for i, cur := range applied {
		switch {
		case sensedC[i] > g.TripC:
			next[i] = 0
		case sensedC[i] < g.ResumeC:
			next[i] = g.Levels - 1
		default:
			next[i] = cur
		}
	}
	g.want = next
}

// PI is a chip-level proportional-integral feedback governor (the
// control-theoretic family of Ebi et al. [15]): the hottest sensed
// temperature is regulated toward SetC by moving a continuous chip-wide
// speed command, which is then quantized per core to the nearest level.
type PI struct {
	SetC   float64
	Kp, Ki float64
	Min    float64 // lowest commandable speed (volts)
	Max    float64 // highest commandable speed (volts)
	levels *power.LevelSet

	integ float64
	cmd   float64
	held
}

// NewPI builds a PI governor over the given level set.
func NewPI(setC, kp, ki float64, levels *power.LevelSet) *PI {
	return &PI{
		SetC: setC, Kp: kp, Ki: ki,
		Min: levels.Min(), Max: levels.Max(),
		levels: levels,
		cmd:    levels.Max(),
	}
}

// Name implements rig.Controller.
func (g *PI) Name() string { return "PI" }

// Decide implements rig.Controller.
func (g *PI) Decide(_ float64, sensedC []float64, applied []int) {
	hottest, _ := mat.VecMax(sensedC)
	err := g.SetC - hottest // positive = headroom
	g.integ += err
	// Anti-windup clamp on the integrator.
	if lim := (g.Max - g.Min) / math.Max(g.Ki, 1e-12); g.integ > lim {
		g.integ = lim
	} else if g.integ < -lim {
		g.integ = -lim
	}
	g.cmd = g.Min + g.Kp*err + g.Ki*g.integ
	if g.cmd > g.Max {
		g.cmd = g.Max
	}
	if g.cmd < g.Min {
		g.cmd = g.Min
	}
	// Quantize down (conservative) to an available level.
	lvl := 0
	for k := 0; k < g.levels.Len(); k++ {
		if g.levels.Mode(k).Voltage <= g.cmd+1e-12 {
			lvl = k
		}
	}
	next := make([]int, len(applied))
	for i := range next {
		next[i] = lvl
	}
	g.want = next
}
