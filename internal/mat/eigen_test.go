package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSymmetric(r *rand.Rand, n int) *Dense {
	s := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.NormFloat64()
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	return s
}

// randomRCStyle builds a matrix with the structure of a compact RC thermal
// model: D diagonal positive and M = −G with G a symmetric, strictly
// diagonally dominant M-matrix (so A = D⁻¹M is Hurwitz).
func randomRCStyle(r *rand.Rand, n int) (dDiag []float64, m *Dense) {
	dDiag = make([]float64, n)
	for i := range dDiag {
		dDiag[i] = 0.1 + r.Float64()*5
	}
	g := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if r.Float64() < 0.5 {
				c := r.Float64() * 2
				g.Set(i, j, -c)
				g.Set(j, i, -c)
				g.Add(i, i, c)
				g.Add(j, j, c)
			}
		}
		g.Add(i, i, 0.2+r.Float64()*3) // conductance to ambient
	}
	return dDiag, g.Scale(-1)
}

func TestSymEigenDiagonal(t *testing.T) {
	s := DiagOf([]float64{3, 1, 2})
	eig, err := SymEigenDecompose(s)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(eig.Values, []float64{1, 2, 3}, 1e-12) {
		t.Fatalf("Values = %v", eig.Values)
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	s := NewDenseData(2, 2, []float64{2, 1, 1, 2})
	eig, err := SymEigenDecompose(s)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(eig.Values, []float64{1, 3}, 1e-12) {
		t.Fatalf("Values = %v", eig.Values)
	}
}

func TestSymEigenReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		s := randomSymmetric(r, n)
		eig, err := SymEigenDecompose(s)
		if err != nil {
			return false
		}
		// V·diag(λ)·Vᵀ = S.
		recon := eig.Vectors.MulDiagRight(eig.Values).Mul(eig.Vectors.T())
		if !recon.Equal(s, 1e-9*math.Max(1, s.MaxAbs())) {
			return false
		}
		// V orthonormal.
		return eig.Vectors.T().Mul(eig.Vectors).Equal(Eye(n), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, err := SymEigenDecompose(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSymmetrizableMatchesDirectProduct(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	d, m := randomRCStyle(r, 6)
	e, err := DecomposeSymmetrizable(d, m)
	if err != nil {
		t.Fatal(err)
	}
	// A = D⁻¹·M directly.
	invD := make([]float64, len(d))
	for i, v := range d {
		invD[i] = 1 / v
	}
	a := m.MulDiagLeft(invD)
	if !e.Matrix().Equal(a, 1e-9) {
		t.Fatal("reconstructed A != D⁻¹M")
	}
	if !e.Stable() {
		t.Fatal("RC-style matrix should be stable")
	}
	if e.SlowestTimeConstant() <= 0 {
		t.Fatal("time constant must be positive")
	}
}

func TestSymmetrizableExpMatchesPade(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		d, m := randomRCStyle(r, n)
		e, err := DecomposeSymmetrizable(d, m)
		if err != nil {
			return false
		}
		tval := r.Float64() * 3
		fast := e.ExpAt(tval)
		ref, err := ExpmScaled(e.Matrix(), tval)
		if err != nil {
			return false
		}
		return fast.Equal(ref, 1e-8*math.Max(1, ref.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSymmetrizableVecPathsMatchMatrixPaths(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d, m := randomRCStyle(r, 7)
	e, err := DecomposeSymmetrizable(d, m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 7)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	tv := 0.37
	tinf := make([]float64, 7)
	for i := range tinf {
		tinf[i] = r.NormFloat64()
	}
	want := VecAdd(e.ExpAt(tv).MulVec(x), phi2(e, tv, tinf))
	if !VecEqual(e.StepVec(tv, x, tinf), want, 1e-10) {
		t.Fatal("StepVec mismatch")
	}
}

func phi2(e *Symmetrizable, t float64, x []float64) []float64 {
	return Eye(e.N()).SubM(e.ExpAt(t)).MulVec(x)
}

func TestSymmetrizableErrors(t *testing.T) {
	if _, err := DecomposeSymmetrizable([]float64{1, 2}, NewDense(3, 3)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	if _, err := DecomposeSymmetrizable([]float64{1, -1}, NewDense(2, 2)); err == nil {
		t.Fatal("expected error for non-positive D")
	}
}

func TestDecayProperty(t *testing.T) {
	// e^{At}·x must shrink toward zero for a stable system as t grows
	// (Property 1 of the paper at the linear-algebra level).
	r := rand.New(rand.NewSource(11))
	d, m := randomRCStyle(r, 5)
	e, err := DecomposeSymmetrizable(d, m)
	if err != nil {
		t.Fatal(err)
	}
	x := VecFill(5, 10)
	tau := e.SlowestTimeConstant()
	prev := VecNormInf(x)
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4, 8, 12} {
		cur := VecNormInf(e.ExpAt(mult * tau).MulVec(x))
		if cur > prev+1e-9 {
			t.Fatalf("norm grew from %v to %v at t=%v·tau", prev, cur, mult)
		}
		prev = cur
	}
	if prev > 1e-3*VecNormInf(x) {
		t.Fatalf("state did not decay after 12 time constants: %v", prev)
	}
}
