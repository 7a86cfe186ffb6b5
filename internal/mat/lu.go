package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Dense // combined L (unit lower) and U (upper)
	piv  []int  // row permutation
	sign int    // permutation parity (+1/−1), used by Det
}

// Factorize computes the LU factorization of the square matrix a with
// partial pivoting. The input is not modified.
func Factorize(a *Dense) (*LU, error) {
	if !a.IsSquare() {
		return nil, errors.New("mat: Factorize requires a square matrix")
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	d := lu.data
	for k := 0; k < n; k++ {
		// Find the pivot row.
		p := k
		max := math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(d[i*n+k]); v > max {
				max, p = v, i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[k*n+j], d[p*n+j] = d[p*n+j], d[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := d[k*n+k]
		for i := k + 1; i < n; i++ {
			m := d[i*n+k] / pivVal
			d[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				d[i*n+j] -= m * d[k*n+j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// SolveVec solves A·x = b for x using the factorization.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, errors.New("mat: SolveVec dimension mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	d := f.lu.data
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		row := d[i*n : i*n+i]
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += d[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / d[i*n+i]
	}
	return x, nil
}

// SolveVecTo solves A·x = b into dst (len(dst) == n) and returns dst. The
// arithmetic — permutation, substitution order, and operand association —
// matches SolveVec exactly, so the in-place form is bit-identical to the
// allocating one. dst may alias b only when they are the same slice.
func (f *LU) SolveVecTo(dst, b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, errors.New("mat: SolveVecTo dimension mismatch")
	}
	if len(dst) != n {
		return nil, errors.New("mat: SolveVecTo destination length mismatch")
	}
	x := dst
	if &x[0] == &b[0] {
		// Permuting in place would read already-overwritten entries; route
		// through the allocating path for the rare aliased call.
		xa, err := f.SolveVec(b)
		if err != nil {
			return nil, err
		}
		copy(dst, xa)
		return dst, nil
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	d := f.lu.data
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		row := d[i*n : i*n+i]
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += d[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / d[i*n+i]
	}
	return dst, nil
}

// SolveMat solves A·X = B column by column.
func (f *LU) SolveMat(b *Dense) (*Dense, error) {
	n := f.lu.rows
	if b.rows != n {
		return nil, errors.New("mat: SolveMat dimension mismatch")
	}
	out := NewDense(n, b.cols)
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		x, err := f.SolveVec(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out.data[i*out.cols+j] = x[i]
		}
	}
	return out, nil
}

// Solve solves a·x = b for x. For repeated solves against the same matrix,
// Factorize once and reuse the LU.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}
