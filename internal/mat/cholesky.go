package mat

import (
	"errors"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization meets a matrix that
// is not symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ.
//
// The conductance-style matrices of this project (G − βE and its
// relatives) are symmetric positive definite by construction, so their
// steady-state solves can use this factorization: roughly half the work
// of LU, with guaranteed stability and a free SPD sanity check (the
// factorization fails exactly when the physical model is broken).
type Cholesky struct {
	l *Dense
}

// FactorizeCholesky computes the Cholesky factorization of the symmetric
// positive definite matrix a (only the lower triangle is read).
func FactorizeCholesky(a *Dense) (*Cholesky, error) {
	if !a.IsSquare() {
		return nil, errors.New("mat: Cholesky requires a square matrix")
	}
	n := a.rows
	l := NewDense(n, n)
	ld := l.data
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= ld[j*n+k] * ld[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		ljj := math.Sqrt(d)
		ld[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= ld[i*n+k] * ld[j*n+k]
			}
			ld[i*n+j] = s / ljj
		}
	}
	return &Cholesky{l: l}, nil
}

// SolveVec solves A·x = b.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	n := c.l.rows
	if len(b) != n {
		return nil, errors.New("mat: Cholesky SolveVec dimension mismatch")
	}
	ld := c.l.data
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= ld[i*n+k] * y[k]
		}
		y[i] = s / ld[i*n+i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * y[k]
		}
		y[i] = s / ld[i*n+i]
	}
	return y, nil
}

// SolveMat solves A·X = B column by column.
func (c *Cholesky) SolveMat(b *Dense) (*Dense, error) {
	n := c.l.rows
	if b.rows != n {
		return nil, errors.New("mat: Cholesky SolveMat dimension mismatch")
	}
	out := NewDense(n, b.cols)
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		x, err := c.SolveVec(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out.data[i*out.cols+j] = x[i]
		}
	}
	return out, nil
}

// InverseSPD inverts a symmetric positive definite matrix via Cholesky.
func InverseSPD(a *Dense) (*Dense, error) {
	c, err := FactorizeCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.SolveMat(Eye(a.rows))
}
