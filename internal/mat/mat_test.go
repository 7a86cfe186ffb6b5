package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0×3 matrix")
		}
	}()
	NewDense(0, 3)
}

func TestNewDenseDataLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestEyeAndDiag(t *testing.T) {
	i3 := Eye(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("Eye(3)[%d][%d] = %v, want %v", r, c, i3.At(r, c), want)
			}
		}
	}
	d := DiagOf([]float64{2, 5, 7})
	if d.At(1, 1) != 5 || d.At(0, 1) != 0 {
		t.Fatalf("DiagOf wrong: %v", d)
	}
	got := d.Diag()
	if !VecEqual(got, []float64{2, 5, 7}, 0) {
		t.Fatalf("Diag() = %v", got)
	}
}

func TestAtSetAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 4.5)
	if m.At(1, 2) != 4.5 {
		t.Fatalf("At after Set = %v", m.At(1, 2))
	}
	m.Add(1, 2, 0.5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At after Add = %v", m.At(1, 2))
	}
}

func TestClone(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if r, c := mt.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %d×%d", r, c)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", mt)
	}
	// (Aᵀ)ᵀ = A.
	if !mt.T().Equal(m, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.Mul(b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := a.MulVec([]float64{1, 0, -1})
	if !VecEqual(got, []float64{-2, -2}, 1e-12) {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulDiag(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	l := a.MulDiagLeft([]float64{10, 100})
	if !l.Equal(NewDenseData(2, 2, []float64{10, 20, 300, 400}), 0) {
		t.Fatalf("MulDiagLeft = %v", l)
	}
	r := a.MulDiagRight([]float64{10, 100})
	if !r.Equal(NewDenseData(2, 2, []float64{10, 200, 30, 400}), 0) {
		t.Fatalf("MulDiagRight = %v", r)
	}
}

func TestNorms(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, -2, -3, 4})
	if a.Norm1() != 6 { // max column abs-sum: |−2|+|4| = 6
		t.Fatalf("Norm1 = %v", a.Norm1())
	}
	if a.NormInf() != 7 { // max row abs-sum: |−3|+|4| = 7
		t.Fatalf("NormInf = %v", a.NormInf())
	}
	if math.Abs(a.NormFrob()-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("NormFrob = %v", a.NormFrob())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{4, 3, 2, 1})
	if !a.AddM(b).Equal(NewDenseData(2, 2, []float64{5, 5, 5, 5}), 0) {
		t.Fatal("AddM wrong")
	}
	if !a.SubM(b).Equal(NewDenseData(2, 2, []float64{-3, -1, 1, 3}), 0) {
		t.Fatal("SubM wrong")
	}
	c := a.Clone().Scale(2)
	if !c.Equal(NewDenseData(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatal("Scale wrong")
	}
	d := a.Clone().AddScaledInPlace(10, b)
	if !d.Equal(NewDenseData(2, 2, []float64{41, 32, 23, 14}), 0) {
		t.Fatal("AddScaledInPlace wrong")
	}
}

// Property: matrix multiplication is associative (up to round-off).
func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a, b, c := randomDense(r, n, n), randomDense(r, n, n), randomDense(r, n, n)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.Equal(right, 1e-9*math.Max(1, left.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b := randomDense(r, m, k), randomDense(r, k, n)
		return a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	m := NewDenseData(1, 2, []float64{1.5, -2})
	s := m.String()
	if s == "" {
		t.Fatal("String() returned empty")
	}
}

func TestEqualDimensionMismatch(t *testing.T) {
	if NewDense(2, 2).Equal(NewDense(2, 3), 1) {
		t.Fatal("Equal must be false for different dims")
	}
}

func TestAccessors(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("Rows/Cols = %d/%d", m.Rows(), m.Cols())
	}
	raw := m.RawData()
	if len(raw) != 6 || raw[4] != 5 {
		t.Fatalf("RawData = %v", raw)
	}
	raw[0] = 42
	if m.At(0, 0) != 42 {
		t.Fatal("RawData must alias the backing storage")
	}
}

func TestSubInPlace(t *testing.T) {
	a := NewDenseData(2, 2, []float64{5, 5, 5, 5})
	b := NewDenseData(2, 2, []float64{4, 3, 2, 1})
	a.SubInPlace(b)
	if !a.Equal(NewDenseData(2, 2, []float64{1, 2, 3, 4}), 0) {
		t.Fatalf("SubInPlace = %v", a)
	}
	mustPanicMat(t, func() { a.SubInPlace(NewDense(3, 3)) })
}

func mustPanicMat(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
