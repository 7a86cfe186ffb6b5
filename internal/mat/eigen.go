package mat

import (
	"errors"
	"math"
)

// Symmetrizable holds the eigendecomposition A = W·diag(Lambda)·W⁻¹ of a
// matrix of the form A = D⁻¹·M with D diagonal positive and M symmetric —
// exactly the structure of compact RC thermal models, where
// A = C⁻¹·(βI − G) with thermal capacitance matrix C (diagonal, positive)
// and symmetric conductance matrix G. Such matrices are similar to the
// symmetric matrix S = D^{-1/2}·M·D^{-1/2} and therefore have real
// eigenvalues and a well-conditioned eigenbasis.
//
// The decomposition makes e^{At} available in O(n²) per evaluation after an
// O(n³) setup, which is the workhorse of the thermal simulator (the paper's
// equations (3) and (4) evaluate e^{A·l} for many interval lengths l).
type Symmetrizable struct {
	n      int
	Lambda []float64 // real eigenvalues of A, ascending
	W      *Dense    // right eigenvectors (columns)
	Winv   *Dense    // W⁻¹ = Vᵀ·D^{1/2}, available in closed form
}

// DecomposeSymmetrizable eigendecomposes A = D⁻¹·M given the diagonal of D
// (all entries must be positive) and the symmetric matrix M.
func DecomposeSymmetrizable(dDiag []float64, m *Dense) (*Symmetrizable, error) {
	n := len(dDiag)
	if m.rows != n || m.cols != n {
		return nil, errors.New("mat: DecomposeSymmetrizable dimension mismatch")
	}
	sqrtD := make([]float64, n)
	invSqrtD := make([]float64, n)
	for i, d := range dDiag {
		if d <= 0 {
			return nil, errors.New("mat: DecomposeSymmetrizable requires positive diagonal D")
		}
		sqrtD[i] = math.Sqrt(d)
		invSqrtD[i] = 1 / sqrtD[i]
	}
	// S = D^{-1/2}·M·D^{-1/2}, symmetric.
	s := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, invSqrtD[i]*m.At(i, j)*invSqrtD[j])
		}
	}
	eig, err := SymEigenDecompose(s)
	if err != nil {
		return nil, err
	}
	// A = D^{-1/2}·S·D^{1/2}  ⇒  W = D^{-1/2}·V,  W⁻¹ = Vᵀ·D^{1/2}.
	w := eig.Vectors.MulDiagLeft(invSqrtD)
	winv := eig.Vectors.T().MulDiagRight(sqrtD)
	return &Symmetrizable{n: n, Lambda: eig.Values, W: w, Winv: winv}, nil
}

// ExpAt returns e^{A·t} as a dense matrix.
func (e *Symmetrizable) ExpAt(t float64) *Dense {
	expL := make([]float64, e.n)
	for i, l := range e.Lambda {
		expL[i] = math.Exp(l * t)
	}
	return e.W.MulDiagRight(expL).Mul(e.Winv)
}

// ExpLambda returns the diagonal propagator factors exp(λ_i·t) of e^{A·t}
// in the eigenbasis. The thermal Propagator cache stores these per
// interval length Δt; feeding them back through StepVecExp reproduces
// StepVec bit for bit.
func (e *Symmetrizable) ExpLambda(t float64) []float64 {
	expL := make([]float64, e.n)
	for i, l := range e.Lambda {
		expL[i] = math.Exp(l * t)
	}
	return expL
}

// StepVecExp is StepVec with the exponential factors expL = exp(λ·t)
// precomputed (see ExpLambda). The arithmetic — operand order included —
// matches StepVec exactly, so cached factors yield bit-identical states.
func (e *Symmetrizable) StepVecExp(expL, x, tInf []float64) []float64 {
	diff := VecSub(x, tInf)
	y := e.Winv.MulVec(diff)
	for i := range y {
		y[i] *= expL[i]
	}
	out := e.W.MulVec(y)
	return VecAddInPlace(out, tInf)
}

// StepVecExpTo is StepVecExp writing into dst, with diff and y as
// caller-owned scratch (each length n): the allocation-free form for the
// solvers' per-solve arenas. The arithmetic — VecSub, W⁻¹ product, factor
// scaling, W product, target add, in that operand order — matches
// StepVecExp exactly, so the states are bit-identical. dst may alias x
// (the diff is captured first); diff and y must alias nothing else.
func (e *Symmetrizable) StepVecExpTo(dst, diff, y, expL, x, tInf []float64) []float64 {
	for i := range x {
		diff[i] = x[i] - tInf[i]
	}
	e.Winv.MulVecTo(y, diff)
	for i := range y {
		y[i] *= expL[i]
	}
	e.W.MulVecTo(dst, y)
	for i := range dst {
		dst[i] += tInf[i]
	}
	return dst
}

// ExpLambdaTo writes the diagonal propagator factors exp(λ_i·t) into dst
// (see ExpLambda); values are bit-identical to the allocating form.
func (e *Symmetrizable) ExpLambdaTo(dst []float64, t float64) []float64 {
	for i, l := range e.Lambda {
		dst[i] = math.Exp(l * t)
	}
	return dst
}

// StepVec advances the state by one interval of length t toward the
// steady-state target tInf: returns e^{At}·x + (I − e^{At})·tInf.
// This is exactly paper eq. (3) for one state interval.
func (e *Symmetrizable) StepVec(t float64, x, tInf []float64) []float64 {
	// e^{At}x + (I−e^{At})tInf = tInf + e^{At}(x − tInf).
	diff := VecSub(x, tInf)
	y := e.Winv.MulVec(diff)
	for i, l := range e.Lambda {
		y[i] *= math.Exp(l * t)
	}
	out := e.W.MulVec(y)
	return VecAddInPlace(out, tInf)
}

// Stable reports whether all eigenvalues are strictly negative, i.e. the
// autonomous system dT/dt = A·T decays to zero (Property 1 prerequisite).
func (e *Symmetrizable) Stable() bool {
	for _, l := range e.Lambda {
		if l >= 0 {
			return false
		}
	}
	return true
}

// SlowestTimeConstant returns −1/λmax, the dominant time constant of the
// system (time to reach ≈63% of a step response). Panics if unstable.
func (e *Symmetrizable) SlowestTimeConstant() float64 {
	lmax := e.Lambda[e.n-1] // ascending order ⇒ last is the largest
	if lmax >= 0 {
		panic("mat: SlowestTimeConstant of an unstable system")
	}
	return -1 / lmax
}
