package mat

import (
	"fmt"
	"math"
)

// Helpers the tests build fixtures with and check results against.

// NewDenseData returns an r×c matrix backed by data (not copied).
// len(data) must equal r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// DiagOf returns the n×n diagonal matrix with the given diagonal entries.
func DiagOf(d []float64) *Dense {
	n := len(d)
	m := NewDense(n, n)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// MaxAbs returns the largest absolute element of m.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	n := f.lu.rows
	det := float64(f.sign)
	for i := 0; i < n; i++ {
		det *= f.lu.data[i*n+i]
	}
	return det
}

// Inverse returns the inverse of a.
func Inverse(a *Dense) (*Dense, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMat(Eye(a.rows))
}

// Matrix reconstructs A = W·diag(Lambda)·W⁻¹.
func (e *Symmetrizable) Matrix() *Dense {
	return e.W.MulDiagRight(e.Lambda).Mul(e.Winv)
}
