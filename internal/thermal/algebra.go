package thermal

import (
	"errors"
	"fmt"
	"math"

	"thermosc/internal/mat"
)

// Algebra selects the linear-algebra backend of a Model.
//
// The dense backend eigendecomposes A once at O(dim³) and then evaluates
// every exponential in the eigenbasis — unbeatable for the paper's tiny
// grids and the bit-exact reference everywhere. The sparse backend never
// factors anything dense: steady states go through a sparse Cholesky of
// (G−βE), transients through the Al-Mohy–Higham action of the matrix
// exponential, and the stability/positivity certificates through the
// SPD/M-matrix structure of the RC network (see docs/SPARSE.md). Both
// backends agree to ~1e-10 relative on every kernel; the differential
// suite in sparse_diff_test.go pins the 1e-8 contract.
type Algebra int

const (
	// AlgebraAuto picks dense below SparseCrossoverDim nodes and sparse at
	// or above it.
	AlgebraAuto Algebra = iota
	// AlgebraDense forces the eigendecomposition backend.
	AlgebraDense
	// AlgebraSparse forces the factorization-free sparse backend.
	AlgebraSparse
)

// SparseCrossoverDim is the node count at which AlgebraAuto switches to
// the sparse backend. The O(dim³) Jacobi eigensolve overtakes the sparse
// build cost around dim ≈ 100 (see docs/SPARSE.md for the measurement);
// every floorplan in the repository's historic test corpus (≤ 6×6 planar,
// dim 73) stays below it, so existing dense plans are bit-identical.
const SparseCrossoverDim = 100

func (a Algebra) String() string {
	switch a {
	case AlgebraAuto:
		return "auto"
	case AlgebraDense:
		return "dense"
	case AlgebraSparse:
		return "sparse"
	}
	return fmt.Sprintf("Algebra(%d)", int(a))
}

// modelConfig carries the optional knobs of model assembly.
type modelConfig struct {
	algebra Algebra
	scales  []float64
}

// ModelOpt adjusts model assembly (all constructors accept them).
type ModelOpt func(*modelConfig) error

// WithAlgebra forces the linear-algebra backend instead of the automatic
// dimension-based crossover.
func WithAlgebra(a Algebra) ModelOpt {
	return func(c *modelConfig) error {
		if a != AlgebraAuto && a != AlgebraDense && a != AlgebraSparse {
			return fmt.Errorf("thermal: unknown algebra %d", int(a))
		}
		c.algebra = a
		return nil
	}
}

// WithHeteroScales declares per-core power scales for constructors that
// do not take them positionally (NewStackedModel): core i consumes
// scales[i] times the reference power. Indices are layer-major on a
// stack. nil means homogeneous.
func WithHeteroScales(scales []float64) ModelOpt {
	return func(c *modelConfig) error {
		c.scales = scales
		return nil
	}
}

// applyOpts folds the options into a config.
func applyOpts(opts []ModelOpt) (modelConfig, error) {
	var c modelConfig
	for _, o := range opts {
		if err := o(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

// checkScales validates a heterogeneity vector for n cores and returns a
// private copy (nil stays nil).
func checkScales(scales []float64, n int) ([]float64, error) {
	if scales == nil {
		return nil, nil
	}
	if len(scales) != n {
		return nil, fmt.Errorf("thermal: %d core scales for %d cores", len(scales), n)
	}
	for i, s := range scales {
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("thermal: non-positive scale %v for core %d", s, i)
		}
	}
	return mat.VecClone(scales), nil
}

// finishModel runs the backend-dependent half of model assembly shared by
// the planar and stacked constructors: build M = βE − G from the
// assembled conductances, choose the algebra, establish the stability and
// inverse-positivity certificates, and wire the Model.
func finishModel(base Model, cfg modelConfig) (*Model, error) {
	md := base
	n, dim := md.n, md.dim

	mm := md.g.Clone().Scale(-1)
	for i := 0; i < n; i++ {
		beta := md.pm.Beta
		if md.scale != nil {
			beta *= md.scale[i]
		}
		mm.Add(i, i, beta)
	}
	md.m = mm

	alg := cfg.algebra
	if alg == AlgebraAuto {
		if dim >= SparseCrossoverDim {
			alg = AlgebraSparse
		} else {
			alg = AlgebraDense
		}
	}
	md.alg = alg

	if alg == AlgebraDense {
		eig, err := mat.DecomposeSymmetrizable(md.cDiag, mm)
		if err != nil {
			return nil, fmt.Errorf("thermal: eigendecomposition failed: %w", err)
		}
		if !eig.Stable() {
			return nil, errUnstable
		}
		// hFull = (G − βE)⁻¹ = (−M)⁻¹. G − βE is symmetric positive
		// definite for any physical calibration; Cholesky halves the solve
		// cost and doubles as the SPD sanity check.
		hFull, err := mat.InverseSPD(mm.Clone().Scale(-1))
		if err != nil {
			return nil, fmt.Errorf("thermal: steady-state matrix singular: %w", err)
		}
		// Inverse positivity is the physical sanity check behind the
		// paper's "−A⁻¹ is a constant matrix which contains all positive
		// elements" (proof of Theorem 3): more power anywhere never cools
		// any node.
		for _, v := range hFull.RawData() {
			if v < -1e-12 {
				return nil, errPositivity
			}
		}
		md.eig = eig
		md.hFull = hFull
		return &md, nil
	}

	// Sparse backend: factor G − βE once (O(nnz) fill for the mesh-plus-
	// sink ordering — the sink node is last, so the near-dense sink row
	// eliminates after the mesh rows). The certificates come for free:
	//
	//   - Cholesky success ⇔ G − βE ≻ 0 ⇔ A = −C⁻¹(G−βE) is Hurwitz, the
	//     same stability condition eig.Stable() checks densely.
	//   - G − βE has non-positive off-diagonals (β only touches the
	//     diagonal); an SPD matrix with non-positive off-diagonals is a
	//     Stieltjes M-matrix, whose inverse is elementwise non-negative —
	//     exactly the Theorem 3 inverse-positivity property, no dim²
	//     inverse scan needed.
	gmbDense := mm.Clone().Scale(-1)
	gmb := mat.NewCSRFromDense(gmbDense)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			if i != j && gmbDense.At(i, j) > 0 {
				return nil, errPositivity
			}
		}
	}
	chol, err := mat.FactorizeSparseCholesky(gmb)
	if err != nil {
		return nil, errUnstable
	}
	// A = C⁻¹·M row-scaled into CSR form for the exponential action.
	inv := make([]float64, dim)
	for i, c := range md.cDiag {
		inv[i] = 1 / c
	}
	md.aSp = mat.NewCSRFromDense(mm.MulDiagLeft(inv))
	md.gmb = gmb
	md.chol = chol
	md.tauDom = sparseDominantTau(chol, md.cDiag)
	return &md, nil
}

var (
	errUnstable   = errors.New("thermal: model is unstable (leakage slope β too large for the conductance network)")
	errPositivity = errors.New("thermal: (G−βE)⁻¹ has negative entries; parameters break inverse positivity")
)

// sparseDominantTau computes the slowest thermal time constant by power
// iteration on H = (G−βE)⁻¹·C = −A⁻¹: H is self-adjoint in the C-inner
// product with positive eigenvalues equal to the time constants, so the
// iteration converges to τ_slow. Deterministic all-ones start.
func sparseDominantTau(chol *mat.SparseCholesky, cDiag []float64) float64 {
	dim := len(cDiag)
	v := make([]float64, dim)
	w := make([]float64, dim)
	for i := range v {
		v[i] = 1
	}
	tau := 0.0
	for iter := 0; iter < 500; iter++ {
		for i := range w {
			w[i] = cDiag[i] * v[i]
		}
		chol.SolveVecTo(w, w) // w = H·v
		var num, den float64
		for i := range v {
			num += v[i] * cDiag[i] * w[i]
			den += v[i] * cDiag[i] * v[i]
		}
		next := num / den
		// Normalize for the next round.
		var norm float64
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		for i := range w {
			v[i] = w[i] / norm
		}
		if iter > 0 && math.Abs(next-tau) <= 1e-12*math.Abs(next) {
			return next
		}
		tau = next
	}
	return tau
}

// SparsePath reports whether the model runs on the sparse backend (no
// eigendecomposition: Eigen returns nil and callers must use the sparse
// stepping/solve primitives).
func (md *Model) SparsePath() bool { return md.alg == AlgebraSparse }

// ASparse returns the sparse system matrix A = C⁻¹(βE−G) (nil on the
// dense backend). Shared — treat as read-only.
func (md *Model) ASparse() *mat.CSR { return md.aSp }

// SolveSteadyTo solves (G−βE)·x = b into dst (sparse backend only; dst
// may alias b). This is the T∞ kernel: SolveSteadyTo(dst, Ψ) = T∞.
func (md *Model) SolveSteadyTo(dst, b []float64) []float64 {
	if md.chol == nil {
		panic("thermal: SolveSteadyTo on the dense backend")
	}
	return md.chol.SolveVecTo(dst, b)
}

// StepSparseTo advances the state by dt toward tInf on the sparse
// backend: dst = tInf + e^{A·dt}·(x − tInf). diff is caller scratch of
// node length (overwritten). dst may alias x (in-place stepping) but must
// alias neither tInf nor diff. ws may be nil.
func (md *Model) StepSparseTo(dst, diff []float64, dt float64, x, tInf []float64, ws *mat.ExpmvScratch) []float64 {
	if md.aSp == nil {
		panic("thermal: StepSparseTo on the dense backend")
	}
	for i := range diff {
		diff[i] = x[i] - tInf[i]
	}
	md.aSp.ExpActionTo(dst, dt, diff, ws)
	for i := range dst {
		dst[i] += tInf[i]
	}
	return dst
}
