package sim

import (
	"math"

	"thermosc/internal/mat"
)

// EnergyReport accounts the electrical energy of one stable-status period
// of a schedule, split into the temperature-independent component (ψ:
// dynamic power plus leakage floor) and the leakage/temperature feedback
// component (β·T integrated along the exact trajectory).
type EnergyReport struct {
	// PerCore[i] is core i's total energy per period in joules.
	PerCore []float64
	// StaticJ and LeakageJ split the chip total.
	StaticJ, LeakageJ float64
	// WorkUnits is the chip's useful work per period (Σ speed·dt), so
	// EnergyPerWork = TotalJ() / WorkUnits is the J-per-work-unit
	// efficiency metric.
	WorkUnits float64
}

// TotalJ returns the chip's total energy per period.
func (e *EnergyReport) TotalJ() float64 { return e.StaticJ + e.LeakageJ }

// EnergyPerWork returns joules per unit of completed work (0 when idle).
func (e *EnergyReport) EnergyPerWork() float64 {
	if e.WorkUnits == 0 {
		return 0
	}
	return e.TotalJ() / e.WorkUnits
}

// Energy integrates each core's power over one stable-status period using
// the closed-form trajectory: within an interval of length l starting
// from state x with target T∞,
//
//	∫₀ˡ T(t) dt = T∞·l + A⁻¹·(e^{A·l} − I)·(x − T∞),
//
// evaluated through the eigendecomposition on the dense backend and, on
// the sparse backend, through the exponential action plus one sparse
// steady solve per interval (A⁻¹ = −(G−βE)⁻¹·C, so the A⁻¹ application
// is a capacitance scaling followed by the already-factored Cholesky).
func (s *Stable) Energy() *EnergyReport {
	md := s.md
	eig := md.Eigen()
	n := md.NumCores()
	pm := md.Power()
	rep := &EnergyReport{PerCore: make([]float64, n)}
	var cd []float64
	var ws mat.ExpmvScratch
	if md.SparsePath() {
		cd = md.Capacitances()
	}

	cur := s.start
	for q, iv := range s.ivs {
		l := iv.Length
		// ∫ T dt for all nodes over this interval.
		diff := mat.VecSub(cur, s.tinfs[q])
		var intT []float64
		if md.SparsePath() {
			// (e^{A·l} − I)·diff, then −(G−βE)⁻¹·C applied to it.
			intT = md.ASparse().ExpActionTo(make([]float64, len(diff)), l, diff, &ws)
			for i := range intT {
				intT[i] = cd[i] * (intT[i] - diff[i])
			}
			md.SolveSteadyTo(intT, intT)
			for i := 0; i < n; i++ {
				intT[i] = s.tinfs[q][i]*l - intT[i]
			}
		} else {
			y := eig.Winv.MulVec(diff)
			for k, lam := range eig.Lambda {
				// (e^{λl} − 1)/λ, with the λ→0 limit l.
				if math.Abs(lam*l) < 1e-12 {
					y[k] *= l
				} else {
					y[k] *= math.Expm1(lam*l) / lam
				}
			}
			intT = eig.W.MulVec(y)
			for i := 0; i < n; i++ {
				intT[i] += s.tinfs[q][i] * l
			}
		}
		for i := 0; i < n; i++ {
			m := iv.Modes[i]
			scale := md.CoreScale(i)
			staticJ := scale * pm.Static(m) * l
			leakJ := 0.0
			if !m.IsOff() {
				leakJ = scale * pm.Beta * intT[i]
			}
			rep.PerCore[i] += staticJ + leakJ
			rep.StaticJ += staticJ
			rep.LeakageJ += leakJ
			rep.WorkUnits += m.Speed() * l
		}
		cur = s.ends[q]
	}
	return rep
}
