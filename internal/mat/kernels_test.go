package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The in-place …To kernels promise the bits of their allocating twins:
// the solvers' evaluation arenas call them, and the plans those arenas
// produce are pinned bit for bit. Each pair is compared exactly on seeded
// random inputs, with the destination prefilled with NaN so a skipped
// element cannot pass.

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// TestMulVecToBitIdentical compares MulVecTo, which sums four rows at a
// time, with one row at a time summed in column order, on shapes that
// leave every remainder of rows mod 4 (the thermal models are 19, 28
// and 33 nodes).
func TestMulVecToBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {4, 3}, {9, 9}, {17, 4}, {19, 19}, {28, 28}, {33, 33}, {6, 40}} {
		m := randomDense(r, dims[0], dims[1])
		x := randVec(r, dims[1])
		want := make([]float64, dims[0])
		for i := range want {
			for j, v := range x {
				want[i] += m.At(i, j) * v
			}
		}
		dst := VecFill(dims[0], math.NaN())
		got := m.MulVecTo(dst, x)
		if &got[0] != &dst[0] {
			t.Fatalf("%v: MulVecTo did not return dst", dims)
		}
		if !sameBits(got, want) {
			t.Fatalf("%v: MulVecTo %v, row-by-row %v", dims, got, want)
		}
		if alloc := m.MulVec(x); !sameBits(alloc, want) {
			t.Fatalf("%v: MulVec %v, row-by-row %v", dims, alloc, want)
		}
	}
	m := NewDense(2, 3)
	mustPanicMat(t, func() { m.MulVecTo(make([]float64, 2), make([]float64, 2)) })
	mustPanicMat(t, func() { m.MulVecTo(make([]float64, 3), make([]float64, 3)) })
}

func TestSolveVecToBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 6, 13} {
		// Gaussian entries: nonsingular, and partial pivoting permutes.
		f, err := Factorize(randomDense(r, n, n))
		if err != nil {
			t.Fatal(err)
		}
		b := randVec(r, n)
		want, err := f.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		dst := VecFill(n, math.NaN())
		got, err := f.SolveVecTo(dst, b)
		if err != nil || &got[0] != &dst[0] || !sameBits(got, want) {
			t.Fatalf("n=%d: SolveVecTo %v (err %v), SolveVec %v", n, got, err, want)
		}
		// dst == b takes the aliased path.
		ab := VecClone(b)
		got, err = f.SolveVecTo(ab, ab)
		if err != nil || &got[0] != &ab[0] || !sameBits(got, want) {
			t.Fatalf("n=%d: aliased SolveVecTo %v (err %v), SolveVec %v", n, got, err, want)
		}
		if _, err := f.SolveVecTo(make([]float64, n), make([]float64, n+1)); err == nil {
			t.Fatalf("n=%d: right-hand side of length %d accepted", n, n+1)
		}
		if _, err := f.SolveVecTo(make([]float64, n+1), make([]float64, n)); err == nil {
			t.Fatalf("n=%d: destination of length %d accepted", n, n+1)
		}
	}
}

func TestStepVecExpToBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 4, 9} {
		d, m := randomRCStyle(r, n)
		e, err := DecomposeSymmetrizable(d, m)
		if err != nil {
			t.Fatal(err)
		}
		expL := e.ExpLambda(0.01 + r.Float64())
		x, tinf := randVec(r, n), randVec(r, n)
		want := e.StepVecExp(expL, x, tinf)
		diff, y := make([]float64, n), make([]float64, n)
		dst := VecFill(n, math.NaN())
		if got := e.StepVecExpTo(dst, diff, y, expL, x, tinf); &got[0] != &dst[0] || !sameBits(got, want) {
			t.Fatalf("n=%d: StepVecExpTo %v, StepVecExp %v", n, got, want)
		}
		// dst may alias x.
		ax := VecClone(x)
		if got := e.StepVecExpTo(ax, diff, y, expL, ax, tinf); !sameBits(got, want) {
			t.Fatalf("n=%d: aliased StepVecExpTo %v, StepVecExp %v", n, got, want)
		}
		mustPanicMat(t, func() { e.StepVecExpTo(make([]float64, n+1), diff, y, expL, x, tinf) })
	}
}
