package mat

import (
	"fmt"
	"math"
)

// CSR is a compressed-sparse-row matrix. The HotSpot-style RC networks
// this repository builds are extremely sparse — each node couples only to
// its mesh neighbours, the layer above/below, and the sink — so the
// row-compressed form stores O(dim) values where Dense stores O(dim²),
// and a matrix-vector product costs O(nnz) instead of O(dim²).
//
// Column indices within a row are strictly increasing; explicit zeros are
// never stored. CSR values are immutable after construction, so a CSR is
// safe for concurrent reads.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// NewCSRFromDense compresses d, dropping exact zeros. The numeric values
// are copied bit-for-bit — no scaling or reordering — so a CSR product
// agrees with the dense product up to summation order only.
func NewCSRFromDense(d *Dense) *CSR {
	r, c := d.Dims()
	a := &CSR{rows: r, cols: c, rowPtr: make([]int, r+1)}
	nnz := 0
	raw := d.RawData()
	for _, v := range raw {
		if v != 0 {
			nnz++
		}
	}
	a.colIdx = make([]int, 0, nnz)
	a.val = make([]float64, 0, nnz)
	for i := 0; i < r; i++ {
		row := raw[i*c : (i+1)*c]
		for j, v := range row {
			if v != 0 {
				a.colIdx = append(a.colIdx, j)
				a.val = append(a.val, v)
			}
		}
		a.rowPtr[i+1] = len(a.colIdx)
	}
	return a
}

// Dims returns the row and column counts.
func (a *CSR) Dims() (r, c int) { return a.rows, a.cols }

// At returns the element at row i, column j (0 when not stored). It is a
// binary search over the row — meant for tests and assembly checks, not
// for inner loops.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.colIdx[mid] == j:
			return a.val[mid]
		case a.colIdx[mid] < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// MulVecTo computes a·x into dst and returns dst. dst must not alias x.
func (a *CSR) MulVecTo(dst, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: CSR MulVecTo dimension mismatch %d×%d · %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: CSR MulVecTo destination length %d, want %d", len(dst), a.rows))
	}
	for i := 0; i < a.rows; i++ {
		var s float64
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			s += a.val[p] * x[a.colIdx[p]]
		}
		dst[i] = s
	}
	return dst
}

// MulVec returns a·x as a new vector.
func (a *CSR) MulVec(x []float64) []float64 {
	return a.MulVecTo(make([]float64, a.rows), x)
}

// Norm1 returns the maximum absolute column sum.
func (a *CSR) Norm1() float64 {
	colSum := make([]float64, a.cols)
	for p, v := range a.val {
		colSum[a.colIdx[p]] += math.Abs(v)
	}
	var max float64
	for _, s := range colSum {
		if s > max {
			max = s
		}
	}
	return max
}

// norm1Shifted returns ‖a − μI‖₁ without materializing the shift (the
// matrix must be square). Used by the expm-action scaling selection;
// colSum is caller-provided scratch of length cols (contents ignored).
func (a *CSR) norm1Shifted(mu float64, colSum []float64) float64 {
	for i := range colSum {
		colSum[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		sawDiag := false
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			j := a.colIdx[p]
			v := a.val[p]
			if j == i {
				v -= mu
				sawDiag = true
			}
			colSum[j] += math.Abs(v)
		}
		if !sawDiag {
			colSum[i] += math.Abs(mu)
		}
	}
	var max float64
	for _, s := range colSum {
		if s > max {
			max = s
		}
	}
	return max
}

// Trace returns the sum of the diagonal entries (square matrices).
func (a *CSR) Trace() float64 {
	if a.rows != a.cols {
		panic("mat: CSR Trace of a non-square matrix")
	}
	var t float64
	for i := 0; i < a.rows; i++ {
		t += a.At(i, i)
	}
	return t
}
