package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randSparseSPD builds a random sparse symmetric diagonally-dominant
// matrix (hence SPD) with roughly the band-plus-coupling structure of an
// RC conductance network.
func randSparseSPD(rng *rand.Rand, n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		// Couple to a few nearby nodes.
		for _, off := range []int{1, 2, 7} {
			j := i + off
			if j >= n {
				continue
			}
			if rng.Float64() < 0.7 {
				g := 0.1 + rng.Float64()
				d.Add(i, j, -g)
				d.Add(j, i, -g)
				d.Add(i, i, g)
				d.Add(j, j, g)
			}
		}
		// Ground leg keeps it strictly positive definite.
		d.Add(i, i, 0.05+rng.Float64())
	}
	return d
}

func TestCSRRoundTripAndOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 17, 40} {
		d := randSparseSPD(rng, n)
		a := NewCSRFromDense(d)
		if r, c := a.Dims(); r != n || c != n {
			t.Fatalf("n=%d: Dims = %d×%d", n, r, c)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a.At(i, j) != d.At(i, j) {
					t.Fatalf("n=%d: At(%d,%d) = %v, want %v", n, i, j, a.At(i, j), d.At(i, j))
				}
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := a.MulVec(x)
		want := d.MulVec(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-13*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: MulVec[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		if g, w := a.Norm1(), d.Norm1(); math.Abs(g-w) > 1e-12*w {
			t.Fatalf("n=%d: Norm1 = %v, want %v", n, g, w)
		}
		var tr float64
		for i := 0; i < n; i++ {
			tr += d.At(i, i)
		}
		if g := a.Trace(); math.Abs(g-tr) > 1e-12*math.Abs(tr) {
			t.Fatalf("n=%d: Trace = %v, want %v", n, g, tr)
		}
	}
}

func TestCSRDropsZeros(t *testing.T) {
	d := NewDense(3, 3)
	d.Set(0, 0, 2)
	d.Set(2, 1, -1)
	a := NewCSRFromDense(d)
	if len(a.val) != 2 {
		t.Fatalf("stored values %v, want 2", a.val)
	}
	if a.At(1, 1) != 0 || a.At(0, 0) != 2 || a.At(2, 1) != -1 {
		t.Fatalf("unexpected entries: %v", a.val)
	}
}

func TestSparseCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 9, 25, 60} {
		d := randSparseSPD(rng, n)
		sp, err := FactorizeSparseCholesky(NewCSRFromDense(d))
		if err != nil {
			t.Fatalf("n=%d: sparse Cholesky failed: %v", n, err)
		}
		dc, err := FactorizeCholesky(d)
		if err != nil {
			t.Fatalf("n=%d: dense Cholesky failed: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := dc.SolveVec(b)
		if err != nil {
			t.Fatalf("n=%d: dense solve failed: %v", n, err)
		}
		got := sp.SolveVec(b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: solve[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		// In-place and aliased forms agree bit-for-bit with SolveVec.
		dst := make([]float64, n)
		copy(dst, b)
		sp.SolveVecTo(dst, dst)
		for i := range dst {
			if dst[i] != got[i] {
				t.Fatalf("n=%d: aliased solve differs at %d", n, i)
			}
		}
		// Residual check: ‖A·x − b‖ small.
		r := d.MulVec(got)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				t.Fatalf("n=%d: residual[%d] = %v", n, i, r[i]-b[i])
			}
		}
	}
}

func TestSparseCholeskyRejectsIndefinite(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(0, 0, 1)
	d.Set(0, 1, 2)
	d.Set(1, 0, 2)
	d.Set(1, 1, 1) // eigenvalues 3, −1
	if _, err := FactorizeSparseCholesky(NewCSRFromDense(d)); err == nil {
		t.Fatal("factorized an indefinite matrix")
	}
}

// randStable builds a random sparse stable system matrix A = −D + N with
// small off-diagonal coupling, the shape the thermal models produce.
func randStable(rng *rand.Rand, n int) *Dense {
	d := randSparseSPD(rng, n)
	// A = −SPD scaled by random positive "capacitances".
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		ci := 0.5 + rng.Float64()
		for j := 0; j < n; j++ {
			a.Set(i, j, -d.At(i, j)/ci)
		}
	}
	return a
}

func TestExpActionMatchesDenseExpm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := &ExpmvScratch{}
	for _, n := range []int{1, 4, 19, 48} {
		a := randStable(rng, n)
		sp := NewCSRFromDense(a)
		for _, tt := range []float64{1e-4, 0.02, 0.5, 3.0, 25.0} {
			e, err := ExpmScaled(a, tt)
			if err != nil {
				t.Fatalf("n=%d t=%v: ExpmScaled failed: %v", n, tt, err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := e.MulVec(b)
			got := sp.ExpActionTo(make([]float64, n), tt, b, ws)
			scale := normInfVec(want) + normInfVec(b)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-10*(1+scale) {
					t.Fatalf("n=%d t=%v: expmv[%d] = %v, want %v (diff %.3g)",
						n, tt, i, got[i], want[i], got[i]-want[i])
				}
			}
		}
	}
}

func TestExpActionEdgeCases(t *testing.T) {
	// t = 0 is the identity.
	a := NewCSRFromDense(randStable(rand.New(rand.NewSource(4)), 6))
	b := []float64{1, -2, 3, -4, 5, -6}
	got := a.ExpActionTo(make([]float64, 6), 0, b, nil)
	for i := range got {
		if got[i] != b[i] {
			t.Fatalf("t=0: got[%d] = %v, want %v", i, got[i], b[i])
		}
	}
	// A = μI reduces to the scalar exponential.
	d := NewDense(3, 3)
	for i := 0; i < 3; i++ {
		d.Set(i, i, -2)
	}
	sc := NewCSRFromDense(d)
	x := []float64{1, 2, 3}
	got = sc.ExpActionTo(make([]float64, 3), 0.7, x, nil)
	for i := range got {
		want := math.Exp(-1.4) * x[i]
		if math.Abs(got[i]-want) > 1e-14 {
			t.Fatalf("scalar case: got[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestExpActionAllocFree(t *testing.T) {
	a := NewCSRFromDense(randStable(rand.New(rand.NewSource(5)), 30))
	b := make([]float64, 30)
	for i := range b {
		b[i] = float64(i) - 14.5
	}
	dst := make([]float64, 30)
	ws := &ExpmvScratch{}
	a.ExpActionTo(dst, 0.3, b, ws) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() {
		a.ExpActionTo(dst, 0.3, b, ws)
	})
	if allocs != 0 {
		t.Fatalf("ExpActionTo allocates %v times per run after warm-up", allocs)
	}
}
