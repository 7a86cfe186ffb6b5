// Package power models per-core power consumption and the discrete DVFS
// running modes of the paper:
//
//	P_i(t) = α(v_i) + β·T_i(t) + γ(v_i)·v_i³        (paper eq. (1))
//
// where the α term is the temperature-independent part of the leakage,
// β·T is the linearized leakage/temperature dependency, and γ·v³ is the
// dynamic power. The paper treats supply voltage v and working frequency f
// interchangeably as the normalized processing speed (its motivation
// example computes throughput directly as the time-average of voltages),
// so a Mode's Speed equals its voltage in volts.
//
// The default parameter values are abstracted from McPAT-class numbers for
// a 4×4 mm² core at 65 nm and calibrated (see internal/thermal and
// EXPERIMENTS.md) so that the paper's motivation example reproduces in
// shape: on the 3×1 platform with Tmax = 65 °C the ideal continuous
// voltages land near 1.17–1.21 V, all-cores-at-1.3 V is thermally
// infeasible, and 0.6 V everywhere is deeply feasible.
package power

import (
	"fmt"
	"math"
	"sort"
)

// Mode is one DVFS running mode. The paper characterizes a mode by a
// (v, f) pair and then uses v and f interchangeably as the processing
// speed; we keep both fields to make that explicit.
type Mode struct {
	Voltage float64 // supply voltage in volts; 0 means the core is off
	Freq    float64 // normalized working frequency (= Voltage by convention)
}

// ModeOff is the inactive mode (v = f = 0).
var ModeOff = Mode{}

// NewMode returns the running mode for supply voltage v with the paper's
// f ≡ v speed convention.
func NewMode(v float64) Mode { return Mode{Voltage: v, Freq: v} }

// Speed returns the normalized processing speed of the mode (work per unit
// time); the paper's throughput metric (eq. (5)) averages this quantity.
func (m Mode) Speed() float64 { return m.Freq }

// IsOff reports whether the mode is the inactive mode.
func (m Mode) IsOff() bool { return m.Voltage == 0 && m.Freq == 0 }

func (m Mode) String() string { return fmt.Sprintf("%.2fV", m.Voltage) }

// Model holds the coefficients of the per-core power equation (1).
// The same coefficients apply to every core (the platform is homogeneous,
// as in the paper's evaluation); heterogeneity can be modeled by giving
// cores distinct Models.
type Model struct {
	// Alpha is the temperature-independent leakage power in watts while
	// the core is active. The paper allows α(v); we use a constant plus a
	// small voltage-proportional term, which preserves the convexity
	// required by Theorem 3.
	Alpha float64
	// AlphaV scales the voltage-linear component of leakage (W/V).
	AlphaV float64
	// Beta is the leakage/temperature slope in W/K. Temperatures in this
	// codebase are normalized to ambient, so the β·T_amb part of the
	// absolute-temperature leakage is folded into Alpha by the caller
	// (see FoldAmbient).
	Beta float64
	// Gamma scales dynamic power: P_dyn = Gamma·v³ (W/V³).
	Gamma float64
}

// DefaultModel returns the calibrated 65 nm / 4×4 mm² core coefficients
// used throughout the experiments.
func DefaultModel() Model {
	return Model{
		Alpha:  0.8,  // W, leakage floor at ambient
		AlphaV: 0.9,  // W/V
		Beta:   0.05, // W/K of temperature rise above ambient
		Gamma:  6.2,  // W/V³ ⇒ ~13.6 W dynamic at 1.3 V
	}
}

// Static returns the temperature-independent power ψ(v) = α(v) + γ(v)·v³
// of an active core at voltage v, in watts. An off core consumes nothing.
// This is the Ψ vector entry of the thermal model's B(v) = C⁻¹Ψ(v).
func (p Model) Static(m Mode) float64 {
	if m.IsOff() {
		return 0
	}
	v := m.Voltage
	return p.Alpha + p.AlphaV*v + p.Gamma*v*v*v
}

// VoltageForStatic inverts Static: it returns the voltage v ≥ 0 such that
// ψ(v) = want. It returns an error if want is below the power floor of the
// lowest usable voltage (i.e. no non-negative voltage achieves it).
func (p Model) VoltageForStatic(want float64) (float64, error) {
	if want < p.Alpha {
		return 0, fmt.Errorf("power: static power %.4g W below leakage floor %.4g W", want, p.Alpha)
	}
	// ψ(v) = α + αv·v + γ·v³ is strictly increasing for v ≥ 0; bisect.
	lo, hi := 0.0, 2.0
	for p.Static(NewMode(hi)) < want {
		hi *= 2
		if hi > 64 {
			return 0, fmt.Errorf("power: static power %.4g W unreachable", want)
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if p.Static(NewMode(mid)) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// LevelSet is an ordered set of available discrete supply voltages.
type LevelSet struct {
	volts []float64
}

// NewLevelSet returns a level set from the given voltages (deduplicated,
// sorted ascending). At least one positive voltage is required.
func NewLevelSet(volts ...float64) (*LevelSet, error) {
	if len(volts) == 0 {
		return nil, fmt.Errorf("power: empty level set")
	}
	vs := append([]float64(nil), volts...)
	sort.Float64s(vs)
	out := vs[:0]
	var prev float64 = math.Inf(-1)
	for _, v := range vs {
		if v <= 0 {
			return nil, fmt.Errorf("power: non-positive voltage %g in level set", v)
		}
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return &LevelSet{volts: out}, nil
}

// MustLevelSet is NewLevelSet that panics on error.
func MustLevelSet(volts ...float64) *LevelSet {
	ls, err := NewLevelSet(volts...)
	if err != nil {
		panic(err)
	}
	return ls
}

// PaperLevels returns the paper's Table IV level selections for
// n ∈ {2,3,4,5} voltage levels.
func PaperLevels(n int) (*LevelSet, error) {
	switch n {
	case 2:
		return NewLevelSet(0.6, 1.3)
	case 3:
		return NewLevelSet(0.6, 0.8, 1.3)
	case 4:
		return NewLevelSet(0.6, 0.8, 1.0, 1.3)
	case 5:
		return NewLevelSet(0.6, 0.8, 1.0, 1.2, 1.3)
	default:
		return nil, fmt.Errorf("power: paper defines level sets for 2..5 levels, not %d", n)
	}
}

// FullRange returns the paper's full DVFS range [0.6 V, 1.3 V] in 0.05 V
// steps (15 modes), used by the EXS scalability experiments.
func FullRange() *LevelSet {
	var vs []float64
	for v := 0.60; v <= 1.3+1e-9; v += 0.05 {
		vs = append(vs, math.Round(v*100)/100)
	}
	return MustLevelSet(vs...)
}

// Voltages returns the sorted voltages (copy).
func (l *LevelSet) Voltages() []float64 {
	return append([]float64(nil), l.volts...)
}

// Len returns the number of levels.
func (l *LevelSet) Len() int { return len(l.volts) }

// Min returns the lowest available voltage.
func (l *LevelSet) Min() float64 { return l.volts[0] }

// Max returns the highest available voltage.
func (l *LevelSet) Max() float64 { return l.volts[len(l.volts)-1] }

// Mode returns the i-th mode (ascending voltage order).
func (l *LevelSet) Mode(i int) Mode { return NewMode(l.volts[i]) }

// Neighbors returns the two levels bracketing v: the greatest level ≤ v
// and the smallest level ≥ v. If v lies below Min (above Max) both returns
// equal Min (Max). If v coincides with a level (within 1e-9) both returns
// equal that level.
func (l *LevelSet) Neighbors(v float64) (lo, hi float64) {
	vs := l.volts
	if v <= vs[0] {
		return vs[0], vs[0]
	}
	if v >= vs[len(vs)-1] {
		return vs[len(vs)-1], vs[len(vs)-1]
	}
	i := sort.SearchFloat64s(vs, v)
	// vs[i-1] < v ≤ vs[i].
	if math.Abs(vs[i]-v) <= 1e-9 {
		return vs[i], vs[i]
	}
	return vs[i-1], vs[i]
}

// LowerNeighbor returns the greatest level ≤ v, or Min if v is below every
// level (the paper's LNS rounding).
func (l *LevelSet) LowerNeighbor(v float64) float64 {
	lo, _ := l.Neighbors(v)
	return lo
}

// TransitionOverhead captures the cost of a DVFS mode switch: the clock is
// halted for Tau seconds per transition (paper §V; 5 µs in the evaluation).
type TransitionOverhead struct {
	Tau float64 // seconds of stalled execution per voltage transition
}

// DefaultOverhead returns the paper's evaluation setting, τ = 5 µs.
func DefaultOverhead() TransitionOverhead { return TransitionOverhead{Tau: 5e-6} }

// Delta returns δ_i = (v_H+v_L)·τ/(v_H−v_L), the seconds by which the
// high-voltage interval must be extended (and the low-voltage interval
// shortened) per transition to keep the throughput unchanged (paper §V).
// It returns +Inf when v_H == v_L (no two-mode oscillation to repair).
func (o TransitionOverhead) Delta(vH, vL float64) float64 {
	if vH <= vL {
		return math.Inf(1)
	}
	return (vH + vL) * o.Tau / (vH - vL)
}

// MaxM returns M_i = ⌊t_L/(δ_i+τ)⌋, the largest oscillation count for
// which the low-voltage interval t_L can still absorb the transition
// overhead (paper §V). A non-oscillating core returns a very large M.
func (o TransitionOverhead) MaxM(tL, vH, vL float64) int {
	const unbounded = math.MaxInt32
	if vH <= vL || o.Tau <= 0 {
		return unbounded
	}
	d := o.Delta(vH, vL)
	m := int(math.Floor(tL / (d + o.Tau)))
	if m < 1 {
		return 1
	}
	if m > unbounded {
		return unbounded
	}
	return m
}
