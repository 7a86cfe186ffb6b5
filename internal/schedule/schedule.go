// Package schedule represents periodic multi-core DVFS schedules and the
// two transformations at the heart of the paper: the step-up rearrangement
// (Definition 2) and the m-Oscillating subdivision (Definition 3).
//
// A Schedule stores one piecewise-constant voltage timeline per core, all
// with the same period. The merged "state interval" view of the paper
// (intervals within which every core holds a single mode) is derived on
// demand by Intervals.
package schedule

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"thermosc/internal/power"
)

// Segment is a stretch of time during which one core holds one mode.
type Segment struct {
	Length float64 // seconds, ≥ 0
	Mode   power.Mode
}

// Interval is one state interval of the merged multi-core schedule: a
// duration during which every core holds a single mode (paper notation
// I_q with voltage vector v_q).
type Interval struct {
	Length float64
	Modes  []power.Mode // one per core
}

// Schedule is a periodic multi-core schedule.
type Schedule struct {
	period float64
	cores  [][]Segment // cores[i] sums to period
}

// relTol is the relative tolerance used when validating that per-core
// timelines span exactly one period and when merging breakpoints.
const relTol = 1e-9

// RelTol exports the breakpoint-merging tolerance so evaluators that
// assemble the merged state-interval view without a Schedule value (the
// per-solve arenas in internal/sim) reproduce Intervals bit for bit.
const RelTol = relTol

// New builds a schedule from per-core segment timelines. Every core's
// segment lengths must sum to the same period (within a relative
// tolerance); zero-length segments are dropped and adjacent equal-mode
// segments merged.
func New(cores [][]Segment) (*Schedule, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("schedule: no cores")
	}
	var period float64
	norm := make([][]Segment, len(cores))
	for i, segs := range cores {
		if len(segs) == 0 {
			return nil, fmt.Errorf("schedule: core %d has no segments", i)
		}
		var sum float64
		for _, s := range segs {
			if s.Length < 0 || math.IsNaN(s.Length) || math.IsInf(s.Length, 0) {
				return nil, fmt.Errorf("schedule: core %d has invalid segment length %v", i, s.Length)
			}
			sum += s.Length
		}
		if sum <= 0 {
			return nil, fmt.Errorf("schedule: core %d has zero total length", i)
		}
		if i == 0 {
			period = sum
		} else if math.Abs(sum-period) > relTol*math.Max(1, period) {
			return nil, fmt.Errorf("schedule: core %d period %v != core 0 period %v", i, sum, period)
		}
		norm[i] = normalize(segs)
	}
	return &Schedule{period: period, cores: norm}, nil
}

// Must is New that panics on error, for tests and static construction.
func Must(cores [][]Segment) *Schedule {
	s, err := New(cores)
	if err != nil {
		panic(err)
	}
	return s
}

// Constant returns a schedule in which every core holds a single mode for
// the whole period.
func Constant(period float64, modes []power.Mode) *Schedule {
	cores := make([][]Segment, len(modes))
	for i, m := range modes {
		cores[i] = []Segment{{Length: period, Mode: m}}
	}
	return Must(cores)
}

// TwoModeSpec describes one core of a two-mode (low-then-high) schedule.
type TwoModeSpec struct {
	Low, High power.Mode
	HighRatio float64 // fraction of the period spent in High, in [0,1]
}

// TwoMode builds the canonical per-core low-then-high schedule the AO
// algorithm produces: each core runs Low for (1−HighRatio)·period and then
// High for HighRatio·period. Cores with HighRatio 0 or 1 degenerate to a
// single constant segment. The result is a step-up schedule by
// construction.
func TwoMode(period float64, specs []TwoModeSpec) (*Schedule, error) {
	if period <= 0 {
		return nil, fmt.Errorf("schedule: non-positive period %v", period)
	}
	cores := make([][]Segment, len(specs))
	for i, sp := range specs {
		if sp.HighRatio < -relTol || sp.HighRatio > 1+relTol {
			return nil, fmt.Errorf("schedule: core %d HighRatio %v outside [0,1]", i, sp.HighRatio)
		}
		r := math.Min(1, math.Max(0, sp.HighRatio))
		switch {
		case r == 0:
			cores[i] = []Segment{{Length: period, Mode: sp.Low}}
		case r == 1:
			cores[i] = []Segment{{Length: period, Mode: sp.High}}
		default:
			cores[i] = []Segment{
				{Length: (1 - r) * period, Mode: sp.Low},
				{Length: r * period, Mode: sp.High},
			}
		}
	}
	return New(cores)
}

// Period returns the schedule period in seconds.
func (s *Schedule) Period() float64 { return s.period }

// NumCores returns the number of cores.
func (s *Schedule) NumCores() int { return len(s.cores) }

// CoreSegments returns a copy of core i's timeline.
func (s *Schedule) CoreSegments(i int) []Segment {
	return append([]Segment(nil), s.cores[i]...)
}

// ModeAt returns core i's mode at time offset t into the period
// (t is wrapped into [0, period)). Segment q covers [start_q, end_q).
func (s *Schedule) ModeAt(i int, t float64) power.Mode {
	t = wrap(t, s.period)
	var acc float64
	segs := s.cores[i]
	for _, seg := range segs {
		acc += seg.Length
		if t < acc {
			return seg.Mode
		}
	}
	return segs[len(segs)-1].Mode
}

// CoreWork returns the work (∫ speed dt) completed by core i per period.
func (s *Schedule) CoreWork(i int) float64 {
	var w float64
	for _, seg := range s.cores[i] {
		w += seg.Mode.Speed() * seg.Length
	}
	return w
}

// Throughput returns the chip-wide throughput of the schedule — the
// paper's eq. (5): total work per period divided by N·t_p.
func (s *Schedule) Throughput() float64 {
	var total float64
	for i := range s.cores {
		total += s.CoreWork(i)
	}
	return total / (float64(len(s.cores)) * s.period)
}

// Intervals returns the merged state-interval view: the union of all
// cores' switching points partitions the period into intervals within
// which every core holds a single mode.
func (s *Schedule) Intervals() []Interval {
	eps := relTol * math.Max(1, s.period)
	// Collect breakpoints.
	pts := []float64{0, s.period}
	for _, segs := range s.cores {
		var acc float64
		for _, seg := range segs[:len(segs)-1] {
			acc += seg.Length
			pts = append(pts, acc)
		}
	}
	sort.Float64s(pts)
	merged := pts[:1]
	for _, p := range pts[1:] {
		if p-merged[len(merged)-1] > eps {
			merged = append(merged, p)
		}
	}
	// Ensure the final breakpoint is exactly the period.
	merged[len(merged)-1] = s.period

	out := make([]Interval, 0, len(merged)-1)
	for k := 0; k+1 < len(merged); k++ {
		mid := 0.5 * (merged[k] + merged[k+1])
		modes := make([]power.Mode, len(s.cores))
		for i := range s.cores {
			modes[i] = s.ModeAt(i, mid)
		}
		out = append(out, Interval{Length: merged[k+1] - merged[k], Modes: modes})
	}
	return out
}

// IsStepUp reports whether the schedule satisfies Definition 1: for the
// merged state intervals, the voltage vector is element-wise non-decreasing
// from the first to the last interval — equivalently, every core's own
// timeline is non-decreasing in voltage.
func (s *Schedule) IsStepUp() bool {
	for _, segs := range s.cores {
		for q := 0; q+1 < len(segs); q++ {
			if segs[q].Mode.Voltage > segs[q+1].Mode.Voltage+1e-15 {
				return false
			}
		}
	}
	return true
}

// StepUp returns the corresponding step-up schedule of Definition 2: each
// core's segments reordered by non-decreasing supply voltage. Workload per
// core (and hence throughput) is preserved exactly.
func (s *Schedule) StepUp() *Schedule {
	cores := make([][]Segment, len(s.cores))
	for i, segs := range s.cores {
		cp := append([]Segment(nil), segs...)
		sort.SliceStable(cp, func(a, b int) bool {
			return cp[a].Mode.Voltage < cp[b].Mode.Voltage
		})
		cores[i] = cp
	}
	return Must(cores)
}

// MOscillate returns the m-Oscillating schedule of Definition 3: every
// state interval's length divided by m with voltages unchanged, the whole
// pattern repeated m times so the period is preserved. m must be ≥ 1.
func (s *Schedule) MOscillate(m int) *Schedule {
	if m < 1 {
		panic(fmt.Sprintf("schedule: MOscillate with m=%d", m))
	}
	if m == 1 {
		return s
	}
	cores := make([][]Segment, len(s.cores))
	for i, segs := range s.cores {
		cycle := make([]Segment, len(segs))
		for q, seg := range segs {
			cycle[q] = Segment{Length: seg.Length / float64(m), Mode: seg.Mode}
		}
		rep := make([]Segment, 0, len(cycle)*m)
		for k := 0; k < m; k++ {
			rep = append(rep, cycle...)
		}
		cores[i] = rep
	}
	return Must(cores)
}

// Cycle returns the single-cycle schedule of an m-oscillated pattern:
// period/m with each core's segment lengths divided by m. Simulating the
// cycle as its own periodic schedule is equivalent to simulating the full
// m-oscillating schedule in the thermally stable status.
func (s *Schedule) Cycle(m int) *Schedule {
	if m < 1 {
		panic(fmt.Sprintf("schedule: Cycle with m=%d", m))
	}
	if m == 1 {
		return s
	}
	cores := make([][]Segment, len(s.cores))
	for i, segs := range s.cores {
		cycle := make([]Segment, len(segs))
		for q, seg := range segs {
			cycle[q] = Segment{Length: seg.Length / float64(m), Mode: seg.Mode}
		}
		cores[i] = cycle
	}
	return Must(cores)
}

// Shift returns a schedule in which core i's timeline is delayed by
// offset seconds (wrapped around the period); other cores are unchanged.
// PCO uses this to interleave high-voltage intervals spatially.
func (s *Schedule) Shift(i int, offset float64) *Schedule {
	offset = wrap(offset, s.period)
	cores := make([][]Segment, len(s.cores))
	for j := range s.cores {
		if j != i || offset == 0 {
			cores[j] = s.cores[j]
			continue
		}
		cores[j] = rotate(s.cores[j], s.period-offset)
	}
	return Must(cores)
}

// Scale returns a schedule with every segment length multiplied by k > 0
// (changing the period, preserving ratios and throughput).
func (s *Schedule) Scale(k float64) *Schedule {
	if k <= 0 {
		panic(fmt.Sprintf("schedule: Scale by %v", k))
	}
	cores := make([][]Segment, len(s.cores))
	for i, segs := range s.cores {
		cp := make([]Segment, len(segs))
		for q, seg := range segs {
			cp[q] = Segment{Length: seg.Length * k, Mode: seg.Mode}
		}
		cores[i] = cp
	}
	return Must(cores)
}

// String renders a compact description for logs and test failures.
func (s *Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "period %.4gs:", s.period)
	for i, segs := range s.cores {
		fmt.Fprintf(&sb, " core%d[", i)
		for q, seg := range segs {
			if q > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%s×%.3g", seg.Mode, seg.Length)
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// rotate returns segs rotated so the returned timeline starts at offset
// `cut` of the original (0 ≤ cut < period).
func rotate(segs []Segment, cut float64) []Segment {
	if cut == 0 {
		return segs
	}
	var acc float64
	out := make([]Segment, 0, len(segs)+1)
	var tail []Segment
	for _, seg := range segs {
		end := acc + seg.Length
		switch {
		case end <= cut+1e-15:
			tail = append(tail, seg)
		case acc >= cut:
			out = append(out, seg)
		default:
			// The segment straddles the cut: split it.
			out = append(out, Segment{Length: end - cut, Mode: seg.Mode})
			tail = append(tail, Segment{Length: cut - acc, Mode: seg.Mode})
		}
		acc = end
	}
	return normalize(append(out, tail...))
}

// normalize drops zero-length segments and merges adjacent equal-mode
// segments.
func normalize(segs []Segment) []Segment {
	out := make([]Segment, 0, len(segs))
	for _, seg := range segs {
		if seg.Length <= 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Mode == seg.Mode {
			out[len(out)-1].Length += seg.Length
			continue
		}
		out = append(out, seg)
	}
	if len(out) == 0 {
		// Entire timeline was zero-length; keep one empty marker so the
		// caller's validation reports the problem instead of indexing nil.
		out = append(out, Segment{})
	}
	return out
}

func wrap(t, period float64) float64 {
	t = math.Mod(t, period)
	if t < 0 {
		t += period
	}
	return t
}
