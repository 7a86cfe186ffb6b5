// Package actuator bridges plans and hardware: it compiles a periodic
// schedule into the timed DVFS command stream a platform driver would
// program, and "executes" schedules against the exact thermal model with
// realistic transition behaviour — every voltage change stalls the core
// for τ while the rail settles, with the stall window burning power at
// the higher of the two voltages (the conservative convention).
//
// Its purpose is end-to-end honesty: the §V overhead accounting inside AO
// extends high intervals so the USEFUL work survives the stalls; Execute
// measures the work a schedule actually completes, so tests can hold the
// planner's claimed throughput against the executed number.
package actuator

import (
	"fmt"
	"math"
	"sort"

	"thermosc/internal/power"
	"thermosc/internal/rt"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/thermal"
)

// Command is one DVFS actuation: at offset At into the period, set core
// Core to Voltage (0 = power the core down).
type Command struct {
	At      float64
	Core    int
	Voltage float64
}

// Compile flattens one period of the schedule into the sorted command
// stream a driver replays every period. The stream includes the
// wrap-around command (at offset 0) when a core's last and first segments
// differ; cores that never switch contribute a single initial command.
func Compile(s *schedule.Schedule) []Command {
	var cmds []Command
	for i := 0; i < s.NumCores(); i++ {
		segs := s.CoreSegments(i)
		var acc float64
		prev := segs[len(segs)-1].Mode.Voltage // voltage arriving at the wrap
		for _, seg := range segs {
			if seg.Mode.Voltage != prev || acc == 0 && len(segs) == 1 {
				cmds = append(cmds, Command{At: acc, Core: i, Voltage: seg.Mode.Voltage})
			}
			prev = seg.Mode.Voltage
			acc += seg.Length
		}
		if len(segs) == 1 {
			// Ensure constant cores still appear once (programmed at boot).
			found := false
			for _, c := range cmds {
				if c.Core == i {
					found = true
					break
				}
			}
			if !found {
				cmds = append(cmds, Command{At: 0, Core: i, Voltage: segs[0].Mode.Voltage})
			}
		}
	}
	sort.Slice(cmds, func(a, b int) bool {
		if cmds[a].At != cmds[b].At {
			return cmds[a].At < cmds[b].At
		}
		return cmds[a].Core < cmds[b].Core
	})
	return cmds
}

// ExecReport summarizes an execution.
type ExecReport struct {
	// PlannedWork is the schedule's face-value work per period
	// (Σ speed·length over every segment — what the timeline claims with
	// free transitions).
	PlannedWork float64
	// ExecutedWork is the work actually completed per period once every
	// voltage change stalls the core for τ.
	ExecutedWork float64
	// StallTime[i] is core i's stalled seconds per period.
	StallTime []float64
	// Transitions counts voltage changes per period, all cores.
	Transitions int
	// PeakC is the stable-status peak of the executed power timeline
	// (stall windows burn at the higher voltage), absolute °C.
	PeakC float64
}

// ExecutedThroughput returns the chip-wide useful throughput actually
// achieved (eq. (5) over the executed work).
func (r *ExecReport) ExecutedThroughput(numCores int, period float64) float64 {
	return r.ExecutedWork / (float64(numCores) * period)
}

// buildExecuted derives the executed power timeline and its work/stall
// accounting: each segment whose voltage differs from its predecessor
// (cyclically) starts with a stall of length min(τ, segment length) — no
// work, power at the higher of the two voltages.
func buildExecuted(s *schedule.Schedule, o power.TransitionOverhead) (*schedule.Schedule, *ExecReport, error) {
	n := s.NumCores()
	rep := &ExecReport{StallTime: make([]float64, n)}
	powerCores := make([][]schedule.Segment, n)
	for i := 0; i < n; i++ {
		segs := s.CoreSegments(i)
		prevV := segs[len(segs)-1].Mode.Voltage
		var out []schedule.Segment
		for _, seg := range segs {
			v := seg.Mode.Voltage
			rep.PlannedWork += seg.Mode.Speed() * seg.Length
			if v != prevV && o.Tau > 0 {
				stall := math.Min(o.Tau, seg.Length)
				hot := math.Max(v, prevV)
				out = append(out, schedule.Segment{Length: stall, Mode: power.NewMode(hot)})
				if rest := seg.Length - stall; rest > 0 {
					out = append(out, schedule.Segment{Length: rest, Mode: seg.Mode})
				}
				rep.StallTime[i] += stall
				rep.Transitions++
				rep.ExecutedWork += seg.Mode.Speed() * (seg.Length - stall)
			} else {
				if v != prevV {
					rep.Transitions++
				}
				out = append(out, seg)
				rep.ExecutedWork += seg.Mode.Speed() * seg.Length
			}
			prevV = v
		}
		powerCores[i] = out
	}
	exec, err := schedule.New(powerCores)
	if err != nil {
		return nil, nil, fmt.Errorf("actuator: building executed timeline: %w", err)
	}
	return exec, rep, nil
}

// Execute runs one period of the schedule on the model with transition
// stalls of o.Tau seconds. It returns the work/stall accounting and the
// densely-verified stable peak of the executed (stall-augmented) power
// timeline.
func Execute(md *thermal.Model, s *schedule.Schedule, o power.TransitionOverhead) (*ExecReport, error) {
	if s.NumCores() != md.NumCores() {
		return nil, fmt.Errorf("actuator: schedule has %d cores, model %d", s.NumCores(), md.NumCores())
	}
	exec, rep, err := buildExecuted(s, o)
	if err != nil {
		return nil, err
	}
	stable, err := sim.NewStable(md, exec)
	if err != nil {
		return nil, err
	}
	peak, _, _ := stable.PeakDense(24)
	rep.PeakC = md.Absolute(peak)
	return rep, nil
}

// ExecutedSpeedProfiles returns each core's realized periodic SPEED
// profile under transition stalls: the first τ of every segment following
// a voltage change delivers zero work. This is the profile a job-level
// scheduler (rt.SimulateEDF) actually sees, as opposed to the POWER
// timeline Execute analyzes thermally.
func ExecutedSpeedProfiles(s *schedule.Schedule, o power.TransitionOverhead) ([][]rt.SpeedSeg, error) {
	n := s.NumCores()
	out := make([][]rt.SpeedSeg, n)
	for i := 0; i < n; i++ {
		segs := s.CoreSegments(i)
		prevV := segs[len(segs)-1].Mode.Voltage
		var prof []rt.SpeedSeg
		for _, seg := range segs {
			v := seg.Mode.Voltage
			if v != prevV && o.Tau > 0 {
				stall := math.Min(o.Tau, seg.Length)
				prof = append(prof, rt.SpeedSeg{Length: stall, Speed: 0})
				if rest := seg.Length - stall; rest > 0 {
					prof = append(prof, rt.SpeedSeg{Length: rest, Speed: seg.Mode.Speed()})
				}
			} else {
				prof = append(prof, rt.SpeedSeg{Length: seg.Length, Speed: seg.Mode.Speed()})
			}
			prevV = v
		}
		out[i] = prof
	}
	return out, nil
}
