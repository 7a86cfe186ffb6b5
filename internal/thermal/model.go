package thermal

import (
	"fmt"

	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
	"thermosc/internal/power"
)

// Model is the assembled LTI thermal model of one multi-core platform.
// Temperatures throughout are rises above ambient (Kelvin); convert with
// Absolute.
type Model struct {
	fp  *floorplan.Floorplan
	pp  PackageParams
	pm  power.Model
	n   int // number of cores
	dim int // number of thermal nodes
	// scale[i] multiplies core i's power (dynamic, leakage floor and
	// leakage/temperature slope alike) relative to the reference core —
	// the heterogeneity knob (nil means homogeneous).
	scale []float64

	cDiag []float64  // node capacitances (diagonal of C)
	g     *mat.Dense // symmetric conductance matrix
	m     *mat.Dense // βE − G (the symmetric numerator of A)

	// Dense backend (alg == AlgebraDense): eigendecomposition of A plus
	// hFull = (G − βE)⁻¹, which maps static power injection to
	// steady-state temperature rise: T∞ = hFull·Ψ. Column i (i < n) is
	// the steady response of all nodes to 1 W injected at core i.
	eig   *mat.Symmetrizable
	hFull *mat.Dense

	// Sparse backend (alg == AlgebraSparse): CSR forms of G − βE and
	// A = C⁻¹(βE−G), the sparse Cholesky of the former, and the dominant
	// time constant from power iteration (see algebra.go).
	alg    Algebra
	gmb    *mat.CSR
	chol   *mat.SparseCholesky
	aSp    *mat.CSR
	tauDom float64
}

// NewModel assembles the layered thermal model for the given floorplan,
// package parameters and power model. It verifies the stability and
// positivity properties the paper's theorems require and returns an error
// if the parameters violate them.
func NewModel(fp *floorplan.Floorplan, pp PackageParams, pm power.Model, opts ...ModelOpt) (*Model, error) {
	return NewHeteroModel(fp, pp, pm, nil, opts...)
}

// NewHeteroModel is NewModel with per-core power scales: core i consumes
// scales[i] times the reference power at any voltage and temperature
// (bigger or process-skewed cores). nil or all-ones gives the homogeneous
// model. Speed semantics are unchanged — a scaled core still delivers
// speed v — so heterogeneity here is purely in power and heat.
func NewHeteroModel(fp *floorplan.Floorplan, pp PackageParams, pm power.Model, scales []float64, opts ...ModelOpt) (*Model, error) {
	cfg, err := applyOpts(opts)
	if err != nil {
		return nil, err
	}
	if scales == nil {
		scales = cfg.scales
	}
	n := fp.NumCores()
	scales, err = checkScales(scales, n)
	if err != nil {
		return nil, err
	}
	dim := 2*n + 1 // n die nodes, n spreader nodes, 1 sink node
	sink := 2 * n

	area := fp.CoreArea()
	g := mat.NewDense(dim, dim)

	// connect adds a conductance between nodes a and b (b == -1 means
	// ambient: only the diagonal term appears).
	connect := func(a, b int, cond float64) {
		if cond <= 0 {
			return
		}
		g.Add(a, a, cond)
		if b >= 0 {
			g.Add(b, b, cond)
			g.Add(a, b, -cond)
			g.Add(b, a, -cond)
		}
	}

	// Vertical path: die node -> spreader block (die conduction + TIM).
	rDie := pp.DieThickness / (pp.KSilicon * area)
	rTIM := pp.TIMThickness / (pp.KTIM * area)
	gVert := 1 / (rDie + rTIM)
	// Spreader block -> sink node.
	rSpread := pp.SpreaderThickness / (pp.KCopper * area)
	gSpSink := 1 / (rSpread + pp.SinkBaseR)
	// Sink -> ambient.
	gConv := 1 / pp.ConvectionR

	for i := 0; i < n; i++ {
		connect(i, n+i, gVert)
		connect(n+i, sink, gSpSink)
		// Border blocks shed extra heat into the sink through the copper
		// ring surrounding the die (the spreader is larger than the die).
		if be := fp.BoundaryEdges(i); be > 0 && pp.SpreaderRingFactor > 0 {
			gRing := pp.SpreaderRingFactor * pp.KCopper * pp.SpreaderThickness * be / fp.CoreEdge
			connect(n+i, sink, gRing)
		}
		// Weak die-edge escape to ambient through the package casing.
		if be := fp.BoundaryEdges(i); be > 0 && pp.KEdge > 0 {
			gEdge := pp.KEdge * be * pp.DieThickness / (fp.CoreEdge / 2)
			connect(i, -1, gEdge)
		}
	}
	connect(sink, -1, gConv)

	// Lateral conductances between adjacent cores (die layer) and between
	// the corresponding spreader blocks.
	for i := 0; i < n; i++ {
		for _, j := range fp.Neighbors(i) {
			if j <= i {
				continue // count each pair once
			}
			shared := fp.SharedEdge(i, j)
			dist := fp.CenterDistance(i, j)
			gLatSi := pp.KSilicon * shared * pp.DieThickness / dist
			gLatCu := pp.KCopper * shared * pp.SpreaderThickness / dist
			connect(i, j, gLatSi)
			connect(n+i, n+j, gLatCu)
		}
	}

	// Node capacitances.
	cDiag := make([]float64, dim)
	cDie := pp.VolHeatSi * area * pp.DieThickness
	cSp := pp.VolHeatCu * area * pp.SpreaderThickness
	for i := 0; i < n; i++ {
		cDiag[i] = cDie
		cDiag[n+i] = cSp
	}
	cDiag[sink] = pp.SinkCap

	return finishModel(Model{
		fp: fp, pp: pp, pm: pm,
		n: n, dim: dim, scale: scales,
		cDiag: cDiag, g: g,
	}, cfg)
}

// Default builds the layered model for a rows×cols grid with the
// repository's calibrated defaults (HotSpot65nm package, DefaultModel
// power, 4 mm cores).
func Default(rows, cols int) (*Model, error) {
	fp, err := floorplan.Grid(rows, cols, 4e-3)
	if err != nil {
		return nil, err
	}
	return NewModel(fp, HotSpot65nm(), power.DefaultModel())
}

// NumCores returns the number of cores.
func (md *Model) NumCores() int { return md.n }

// NumNodes returns the total number of thermal nodes.
func (md *Model) NumNodes() int { return md.dim }

// Floorplan returns the underlying floorplan.
func (md *Model) Floorplan() *floorplan.Floorplan { return md.fp }

// Power returns the power model coefficients.
func (md *Model) Power() power.Model { return md.pm }

// Package returns the package parameters.
func (md *Model) Package() PackageParams { return md.pp }

// Eigen returns the eigendecomposition of A (shared; do not mutate).
// It is nil on the sparse backend — gate with SparsePath before use.
func (md *Model) Eigen() *mat.Symmetrizable { return md.eig }

// A reconstructs the dense system matrix A = C⁻¹(βE − G).
func (md *Model) A() *mat.Dense {
	inv := make([]float64, md.dim)
	for i, c := range md.cDiag {
		inv[i] = 1 / c
	}
	return md.m.MulDiagLeft(inv)
}

// Conductance returns a copy of the symmetric conductance matrix G.
func (md *Model) Conductance() *mat.Dense { return md.g.Clone() }

// Capacitances returns a copy of the node capacitances.
func (md *Model) Capacitances() []float64 { return mat.VecClone(md.cDiag) }

// Psi returns the node-length static power injection vector Ψ(v) for the
// given per-core modes: CoreScale(i)·Static(v_i) at core nodes, zero
// elsewhere.
func (md *Model) Psi(modes []power.Mode) []float64 {
	md.checkModes(modes)
	psi := make([]float64, md.dim)
	for i, m := range modes {
		psi[i] = md.CoreScale(i) * md.pm.Static(m)
	}
	return psi
}

// CoreScale returns core i's power scale (1 for homogeneous platforms).
func (md *Model) CoreScale(i int) float64 {
	if md.scale == nil {
		return 1
	}
	return md.scale[i]
}

// BVec returns B(v) = C⁻¹·Ψ(v).
func (md *Model) BVec(modes []power.Mode) []float64 {
	psi := md.Psi(modes)
	for i := range psi {
		psi[i] /= md.cDiag[i]
	}
	return psi
}

// SteadyState returns T∞ = (G−βE)⁻¹·Ψ(v), the temperature rise of every
// node if the mode vector were held forever (paper: T∞ = −A⁻¹B).
func (md *Model) SteadyState(modes []power.Mode) []float64 {
	if md.chol != nil {
		psi := md.Psi(modes)
		return md.chol.SolveVecTo(psi, psi)
	}
	return md.hFull.MulVec(md.Psi(modes))
}

// SteadyStateCores returns the core-node entries of SteadyState.
func (md *Model) SteadyStateCores(modes []power.Mode) []float64 {
	return md.SteadyState(modes)[:md.n]
}

// UnitResponses returns the dim×n matrix whose column i is the steady
// temperature response of all nodes to 1 W of static power injected at
// core i. EXS uses it for incremental feasibility checks; the solver's
// large-platform trial pruning uses it as a sensitivity proxy.
func (md *Model) UnitResponses() *mat.Dense {
	out := mat.NewDense(md.dim, md.n)
	if md.chol != nil {
		e := make([]float64, md.dim)
		for j := 0; j < md.n; j++ {
			for i := range e {
				e[i] = 0
			}
			e[j] = 1
			md.chol.SolveVecTo(e, e)
			for i := 0; i < md.dim; i++ {
				out.Set(i, j, e[i])
			}
		}
		return out
	}
	for j := 0; j < md.n; j++ {
		for i := 0; i < md.dim; i++ {
			out.Set(i, j, md.hFull.At(i, j))
		}
	}
	return out
}

// Step advances the temperature state by dt seconds with the given
// constant mode vector — exactly paper eq. (3) for one state interval:
//
//	T(t0+dt) = e^{A·dt}·T(t0) + (I − e^{A·dt})·T∞(v).
func (md *Model) Step(dt float64, t []float64, modes []power.Mode) []float64 {
	return md.StepToward(dt, t, md.SteadyState(modes))
}

// StepToward is Step with a precomputed steady-state target, avoiding the
// repeated SteadyState solve in inner loops.
func (md *Model) StepToward(dt float64, t, tInf []float64) []float64 {
	md.checkState(t)
	if md.aSp != nil {
		return md.StepSparseTo(make([]float64, md.dim), make([]float64, md.dim), dt, t, tInf, nil)
	}
	return md.eig.StepVec(dt, t, tInf)
}

// CoreTemps extracts the core-node entries from a full state vector.
func (md *Model) CoreTemps(t []float64) []float64 {
	return mat.VecClone(t[:md.n])
}

// Absolute converts a temperature rise to absolute °C.
func (md *Model) Absolute(rise float64) float64 { return rise + md.pp.AmbientC }

// Rise converts an absolute °C temperature to a rise above ambient.
func (md *Model) Rise(absC float64) float64 { return absC - md.pp.AmbientC }

// DominantTimeConstant returns the slowest thermal time constant of the
// platform in seconds.
func (md *Model) DominantTimeConstant() float64 {
	if md.SparsePath() {
		return md.tauDom
	}
	return md.eig.SlowestTimeConstant()
}

func (md *Model) checkModes(modes []power.Mode) {
	if len(modes) != md.n {
		panic(fmt.Sprintf("thermal: %d modes for %d cores", len(modes), md.n))
	}
}

func (md *Model) checkState(t []float64) {
	if len(t) != md.dim {
		panic(fmt.Sprintf("thermal: state length %d, want %d nodes", len(t), md.dim))
	}
}

// ZeroState returns the all-ambient initial state.
func (md *Model) ZeroState() []float64 { return make([]float64, md.dim) }
