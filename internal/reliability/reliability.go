// Package reliability quantifies the wear-out implications of thermal
// schedules. The paper motivates thermal management with lifetime ("every
// 10–15 °C temperature increment could result in 50% reduction in the
// device's lifespan") but does not analyze the one obvious cost of its
// own proposal: frequency oscillation induces *thermal cycling*, and
// cycling fatigue (solder joints, metal lines) follows a Coffin–Manson
// law in the cycle amplitude. This package provides:
//
//   - rainflow cycle counting over a temperature trace (ASTM E1049-style
//     three-point algorithm), the standard way to decompose an irregular
//     load history into closed cycles;
//   - a Coffin–Manson damage model mapping counted cycles to a relative
//     damage rate;
//   - an Arrhenius-style electromigration acceleration factor for the
//     sustained temperature component.
//
// The companion experiment shows the paper's implicit defense: as the
// oscillation count m grows, the per-cycle amplitude shrinks faster than
// the cycle count grows (for Coffin–Manson exponents q > 1), so higher m
// is *better* for cycling fatigue, not worse.
package reliability

import (
	"math"
)

// Cycle is one closed thermal cycle extracted by rainflow counting.
type Cycle struct {
	AmplitudeK float64 // half the peak-to-valley range, in kelvins
	MeanC      float64 // cycle mean temperature, absolute °C
	Count      float64 // 1 for full cycles, 0.5 for residual half cycles
}

// Rainflow extracts cycles from a temperature series (absolute °C) using
// the ASTM E1049 three-point rainflow algorithm: ranges enclosing the
// history's starting point count as half cycles, interior closed ranges
// as full cycles, and the unresolved residual as half cycles.
func Rainflow(series []float64) []Cycle {
	peaks := reversals(series)
	if len(peaks) < 2 {
		return nil
	}
	var cycles []Cycle
	emit := func(a, b, count float64) {
		amp := math.Abs(a-b) / 2
		if amp == 0 {
			return
		}
		cycles = append(cycles, Cycle{
			AmplitudeK: amp,
			MeanC:      (a + b) / 2,
			Count:      count,
		})
	}
	var stack []float64
	for _, p := range peaks {
		stack = append(stack, p)
		for {
			n := len(stack)
			if n < 3 {
				break
			}
			x := math.Abs(stack[n-1] - stack[n-2])
			y := math.Abs(stack[n-2] - stack[n-3])
			if x < y {
				break
			}
			if n == 3 {
				// Range Y contains the starting point: half cycle, and
				// the start is consumed.
				emit(stack[0], stack[1], 0.5)
				stack = stack[1:]
			} else {
				emit(stack[n-3], stack[n-2], 1)
				stack = append(stack[:n-3], stack[n-1])
			}
		}
	}
	for i := 0; i+1 < len(stack); i++ {
		emit(stack[i], stack[i+1], 0.5)
	}
	return cycles
}

// RainflowPeriodic counts cycles of one period of a PERIODIC series
// (e.g. a stable-status temperature trace). The series is rotated to
// start at its global maximum and closed back onto it, which makes every
// extracted cycle a full cycle — the standard treatment for repeating
// load histories.
func RainflowPeriodic(series []float64) []Cycle {
	if len(series) < 2 {
		return nil
	}
	argmax := 0
	for i, v := range series {
		if v > series[argmax] {
			argmax = i
		}
	}
	rotated := make([]float64, 0, len(series)+1)
	rotated = append(rotated, series[argmax:]...)
	rotated = append(rotated, series[:argmax]...)
	rotated = append(rotated, series[argmax])
	// Starting and ending at the global maximum, the residual reduces to
	// the max→min→max sweep, whose two half-cycles sum to the one full
	// deep cycle of the period — so the plain count is already correct.
	return Rainflow(rotated)
}

// reversals reduces a series to its alternating local extrema (including
// the endpoints).
func reversals(series []float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	out := []float64{series[0]}
	for i := 1; i+1 < len(series); i++ {
		a, b, c := series[i-1], series[i], series[i+1]
		if (b > a && b >= c) || (b < a && b <= c) {
			if b != out[len(out)-1] {
				out = append(out, b)
			}
		}
	}
	if last := series[len(series)-1]; last != out[len(out)-1] {
		out = append(out, last)
	}
	return out
}

// CoffinManson parameterizes cycling fatigue: cycles to failure at
// amplitude ΔT is Nf = C0 · ΔT^(−Q). Only relative damage matters here,
// so C0 is normalized away.
type CoffinManson struct {
	// Q is the fatigue exponent; 2–2.5 is typical for solder fatigue.
	Q float64
	// MinAmplitudeK ignores micro-cycles below this amplitude (sub-kelvin
	// ripple does not propagate cracks).
	MinAmplitudeK float64
}

// DefaultCoffinManson returns Q = 2.35 with a 0.5 K floor.
func DefaultCoffinManson() CoffinManson {
	return CoffinManson{Q: 2.35, MinAmplitudeK: 0.5}
}

// Damage returns the relative fatigue damage of the counted cycles:
// Σ count_i · (2·amplitude_i)^Q. Divide by the trace duration for a rate.
func (cm CoffinManson) Damage(cycles []Cycle) float64 {
	var d float64
	for _, c := range cycles {
		if c.AmplitudeK < cm.MinAmplitudeK {
			continue
		}
		d += c.Count * math.Pow(2*c.AmplitudeK, cm.Q)
	}
	return d
}

// Arrhenius parameterizes sustained-temperature wear (electromigration,
// TDDB): the acceleration factor between two temperatures is
// exp(Ea/k · (1/T1 − 1/T2)) with absolute temperatures in kelvin.
type Arrhenius struct {
	// ActivationEV is the activation energy in electron-volts
	// (electromigration ≈ 0.7 eV).
	ActivationEV float64
}

// DefaultArrhenius returns the electromigration default, Ea = 0.7 eV.
func DefaultArrhenius() Arrhenius { return Arrhenius{ActivationEV: 0.7} }

// boltzmannEVPerK is the Boltzmann constant in eV/K.
const boltzmannEVPerK = 8.617333262e-5

// AccelerationFactor returns how much faster wear accrues at tempC than
// at refC (both absolute °C).
func (a Arrhenius) AccelerationFactor(tempC, refC float64) float64 {
	t := tempC + 273.15
	r := refC + 273.15
	return math.Exp(a.ActivationEV / boltzmannEVPerK * (1/r - 1/t))
}

// MeanAcceleration integrates the acceleration factor over a trace
// relative to refC (time-weighted mean over equally spaced samples).
func (a Arrhenius) MeanAcceleration(series []float64, refC float64) float64 {
	if len(series) == 0 {
		return 0
	}
	var s float64
	for _, t := range series {
		s += a.AccelerationFactor(t, refC)
	}
	return s / float64(len(series))
}
