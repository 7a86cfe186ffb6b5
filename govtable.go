package thermosc

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"thermosc/internal/sim"
)

// GovernorTable holds precomputed guaranteed plans for a ladder of peak
// temperature thresholds — the artifact an OS thermal governor consumes:
// measure the operating condition (e.g. current ambient or enclosure
// policy), look up the hottest threshold at or below the allowance, and
// program that plan's command stream. All entries are solved offline with
// full guarantees; the lookup never interpolates (interpolated schedules
// carry no certificate).
type GovernorTable struct {
	// Entries ascend by threshold. Infeasible thresholds (nothing can
	// run) are stored with an all-off plan so lookups below the ladder
	// still return something safe.
	Entries []GovernorEntry `json:"entries"`
}

// GovernorEntry pairs a threshold with its guaranteed plan.
type GovernorEntry struct {
	TmaxC float64 `json:"tmax_c"`
	Plan  *Plan   `json:"plan"`
}

// BuildGovernorTable solves the method at every threshold (°C, any order;
// duplicates rejected) and assembles the lookup table.
func (p *Platform) BuildGovernorTable(method Method, tmaxsC []float64) (*GovernorTable, error) {
	if len(tmaxsC) == 0 {
		return nil, fmt.Errorf("thermosc: empty threshold ladder")
	}
	sorted := append([]float64(nil), tmaxsC...)
	sort.Float64s(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("thermosc: duplicate threshold %.2f °C", sorted[i])
		}
	}
	tbl := &GovernorTable{}
	for _, tmax := range sorted {
		if tmax <= p.AmbientC() {
			return nil, fmt.Errorf("thermosc: threshold %.2f °C not above ambient %.2f °C", tmax, p.AmbientC())
		}
		plan, err := p.Maximize(method, tmax)
		if err != nil {
			return nil, fmt.Errorf("thermosc: solving %.2f °C: %w", tmax, err)
		}
		tbl.Entries = append(tbl.Entries, GovernorEntry{TmaxC: tmax, Plan: plan})
	}
	return tbl, nil
}

// PlanFor returns the plan of the hottest threshold ≤ allowanceC, i.e.
// the most aggressive schedule still guaranteed under the allowance. The
// boolean is false when the allowance is below every entry (the caller
// should power down or consult a finer ladder).
func (t *GovernorTable) PlanFor(allowanceC float64) (*Plan, float64, bool) {
	best := -1
	for i, e := range t.Entries {
		if e.TmaxC <= allowanceC+1e-9 {
			best = i
		} else {
			break
		}
	}
	if best < 0 {
		return nil, 0, false
	}
	e := t.Entries[best]
	return e.Plan, e.TmaxC, true
}

// Validate checks the structural invariants of a (possibly deserialized)
// table: ascending unique thresholds, plans present, and monotone
// throughput (a hotter allowance never sustains less).
func (t *GovernorTable) Validate() error {
	if len(t.Entries) == 0 {
		return fmt.Errorf("thermosc: empty governor table")
	}
	prevT := math.Inf(-1)
	prevThr := -1.0
	for i, e := range t.Entries {
		if e.TmaxC <= prevT {
			return fmt.Errorf("thermosc: entry %d: thresholds not strictly ascending", i)
		}
		if e.Plan == nil {
			return fmt.Errorf("thermosc: entry %d: missing plan", i)
		}
		if err := e.Plan.validate(); err != nil {
			return fmt.Errorf("thermosc: entry %d: %w", i, err)
		}
		if e.Plan.Throughput < prevThr-1e-9 {
			return fmt.Errorf("thermosc: entry %d: throughput %.4f below the cooler entry's %.4f",
				i, e.Plan.Throughput, prevThr)
		}
		prevT, prevThr = e.TmaxC, e.Plan.Throughput
	}
	return nil
}

// SwitchInfo characterizes hopping between two ladder entries at runtime.
type SwitchInfo struct {
	FromC, ToC float64
	// TransientPeakC is the hottest temperature during the transition.
	TransientPeakC float64
	// SettleSeconds is how long after the switch the chip stays within
	// the DESTINATION threshold's envelope (0 for upward switches that
	// never leave it; -1 if it did not settle within the analysis
	// horizon).
	SettleSeconds float64
	// Safe: an upward switch never exceeds the destination threshold; a
	// downward switch never exceeds the SOURCE threshold and settles.
	Safe bool
}

// AnalyzeSwitching certifies runtime hopping between adjacent ladder
// entries in both directions. The plans must have been built on this
// platform.
func (t *GovernorTable) AnalyzeSwitching(p *Platform) ([]SwitchInfo, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var out []SwitchInfo
	for i := 0; i+1 < len(t.Entries); i++ {
		for _, dir := range [][2]int{{i, i + 1}, {i + 1, i}} {
			from, to := t.Entries[dir[0]], t.Entries[dir[1]]
			info, err := p.analyzeSwitch(from, to)
			if err != nil {
				return nil, fmt.Errorf("thermosc: switch %.1f→%.1f °C: %w", from.TmaxC, to.TmaxC, err)
			}
			out = append(out, *info)
		}
	}
	return out, nil
}

func (p *Platform) analyzeSwitch(from, to GovernorEntry) (*SwitchInfo, error) {
	sFrom, err := from.Plan.internalSchedule(p)
	if err != nil {
		return nil, err
	}
	sTo, err := to.Plan.internalSchedule(p)
	if err != nil {
		return nil, err
	}
	settleRise := p.model.Rise(to.TmaxC) + 1e-6
	maxPeriods := int(12*p.model.DominantTimeConstant()/sTo.Period()) + 2
	rep, err := sim.Switch(p.model, sFrom, sTo, settleRise, maxPeriods, 4)
	if err != nil {
		return nil, err
	}
	info := &SwitchInfo{
		FromC:          from.TmaxC,
		ToC:            to.TmaxC,
		TransientPeakC: p.model.Absolute(rep.PeakRise),
	}
	if rep.SettlePeriods >= 0 {
		info.SettleSeconds = float64(rep.SettlePeriods) * sTo.Period()
	} else {
		info.SettleSeconds = -1
	}
	const slack = 0.05
	if to.TmaxC >= from.TmaxC {
		info.Safe = info.TransientPeakC <= to.TmaxC+slack
	} else {
		info.Safe = info.TransientPeakC <= from.TmaxC+slack && rep.SettlePeriods >= 0
	}
	return info, nil
}

// MarshalJSON/UnmarshalJSON use the Plan interchange format; Unmarshal
// validates the table.
func (t *GovernorTable) UnmarshalJSON(data []byte) error {
	type raw GovernorTable
	var r raw
	if err := json.Unmarshal(data, &r); err != nil {
		return err
	}
	out := GovernorTable(r)
	if err := out.Validate(); err != nil {
		return err
	}
	*t = out
	return nil
}
