package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSPD(r *rand.Rand, n int) *Dense {
	// A = Bᵀ·B + n·I is comfortably SPD.
	b := randomDense(r, n, n)
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyHandComputed(t *testing.T) {
	// A = [[4,2],[2,3]] ⇒ L = [[2,0],[1,√2]].
	a := NewDenseData(2, 2, []float64{4, 2, 2, 3})
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.l.At(0, 0)-2) > 1e-12 || math.Abs(c.l.At(1, 0)-1) > 1e-12 ||
		math.Abs(c.l.At(1, 1)-math.Sqrt2) > 1e-12 {
		t.Fatalf("L = %v", c.l)
	}
	x, err := c.SolveVec([]float64{8, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(a.MulVec(x), []float64{8, 7}, 1e-12) {
		t.Fatalf("solve wrong: %v", x)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	if _, err := FactorizeCholesky(NewDenseData(2, 2, []float64{1, 2, 2, 1})); err != ErrNotSPD {
		t.Fatalf("indefinite matrix: err = %v", err)
	}
	if _, err := FactorizeCholesky(NewDense(2, 3)); err == nil {
		t.Fatal("non-square must error")
	}
	z := NewDense(2, 2) // singular (zero)
	if _, err := FactorizeCholesky(z); err != ErrNotSPD {
		t.Fatalf("singular matrix: err = %v", err)
	}
}

func TestCholeskySolveRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randomSPD(r, n)
		c, err := FactorizeCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := c.SolveVec(b)
		if err != nil {
			return false
		}
		return VecEqual(a.MulVec(x), b, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyAgreesWithLU(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomSPD(r, 8)
	invC, err := InverseSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	invLU, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !invC.Equal(invLU, 1e-9) {
		t.Fatal("Cholesky inverse disagrees with LU inverse")
	}
}

func TestCholeskySolveMatDimensions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randomSPD(r, 4)
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveMat(NewDense(3, 2)); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := c.SolveVec(make([]float64, 3)); err == nil {
		t.Fatal("vector mismatch must error")
	}
	b := randomDense(r, 4, 3)
	x, err := c.SolveMat(b)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(x).Equal(b, 1e-9) {
		t.Fatal("A·X != B")
	}
}

func BenchmarkCholeskySolve19(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	a := randomSPD(r, 19)
	c, err := FactorizeCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 19)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SolveVec(rhs); err != nil {
			b.Fatal(err)
		}
	}
}
