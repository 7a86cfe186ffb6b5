package mat

import (
	"fmt"
	"math"
)

// SparseCholesky is the factorization A = L·Lᵀ of a sparse symmetric
// positive-definite matrix, with L stored column-compressed (strictly
// lower triangle in colPtr/rowIdx/val, diagonal separately in diag).
//
// The factorization uses the up-looking algorithm in natural order: the
// RC-network matrices this repository factorizes already list the
// well-connected sink node last, which keeps fill-in low without a
// fill-reducing permutation (the mesh rows eliminate before the
// near-dense sink row). A successful factorization doubles as the
// positive-definiteness certificate the thermal layer relies on for its
// stability check.
//
// A SparseCholesky is immutable after FactorizeSparseCholesky and safe
// for concurrent SolveVecTo calls with distinct destinations.
type SparseCholesky struct {
	n      int
	colPtr []int
	rowIdx []int
	val    []float64
	diag   []float64
}

// FactorizeSparseCholesky computes the Cholesky factorization of the
// sparse symmetric positive-definite matrix a (both triangles stored).
// It returns an error if a is not positive definite — for the thermal
// conductance systems this is the "leakage slope β too large" condition.
func FactorizeSparseCholesky(a *CSR) (*SparseCholesky, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("mat: sparse Cholesky of a non-square %d×%d matrix", n, c)
	}
	parent := etree(a)

	// Symbolic pass: the pattern of L's row k is the union of the etree
	// paths from each below-diagonal entry of A's row k; count how many
	// entries land in each column of L.
	colCount := make([]int, n)
	mark := make([]int, n)
	stack := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for k := 0; k < n; k++ {
		mark[k] = k
		for p := a.rowPtr[k]; p < a.rowPtr[k+1]; p++ {
			j := a.colIdx[p]
			if j >= k {
				continue
			}
			for i := j; mark[i] != k; i = parent[i] {
				colCount[i]++
				mark[i] = k
			}
		}
	}
	ch := &SparseCholesky{
		n:      n,
		colPtr: make([]int, n+1),
		diag:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ch.colPtr[i+1] = ch.colPtr[i] + colCount[i]
	}
	nnz := ch.colPtr[n]
	ch.rowIdx = make([]int, nnz)
	ch.val = make([]float64, nnz)

	// Numeric pass, up-looking: for each row k solve
	// L[0:k,0:k]·L[k,0:k]ᵀ = A[0:k,k] over the symbolic pattern (emitted
	// in topological etree order so every column is finished before it is
	// used), then take the diagonal pivot.
	next := make([]int, n) // append cursor per column of L
	copy(next, ch.colPtr)
	x := make([]float64, n)
	for i := range mark {
		mark[i] = -1
	}
	for k := 0; k < n; k++ {
		// ereach: pattern of L(k, 0:k) in stack[top:n], topological order.
		top := n
		mark[k] = k
		dkk := 0.0
		for p := a.rowPtr[k]; p < a.rowPtr[k+1]; p++ {
			j := a.colIdx[p]
			if j > k {
				continue
			}
			if j == k {
				dkk = a.val[p]
				continue
			}
			x[j] = a.val[p]
			ln := 0
			for i := j; mark[i] != k; i = parent[i] {
				stack[ln] = i
				ln++
				mark[i] = k
			}
			for ln > 0 {
				ln--
				top--
				stack[top] = stack[ln]
			}
		}
		for ; top < n; top++ {
			i := stack[top]
			lki := x[i] / ch.diag[i]
			x[i] = 0
			for p := ch.colPtr[i]; p < next[i]; p++ {
				x[ch.rowIdx[p]] -= ch.val[p] * lki
			}
			dkk -= lki * lki
			ch.rowIdx[next[i]] = k
			ch.val[next[i]] = lki
			next[i]++
		}
		if !(dkk > 0) {
			return nil, fmt.Errorf("mat: sparse Cholesky pivot %d is %v — matrix not positive definite", k, dkk)
		}
		ch.diag[k] = math.Sqrt(dkk)
	}
	return ch, nil
}

// etree computes the elimination tree of the symmetric matrix a (Liu's
// algorithm with path halving via the ancestor array).
func etree(a *CSR) []int {
	n := a.rows
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	for k := 0; k < n; k++ {
		for p := a.rowPtr[k]; p < a.rowPtr[k+1]; p++ {
			i := a.colIdx[p]
			for i != -1 && i < k {
				nxt := ancestor[i]
				ancestor[i] = k
				if nxt == -1 {
					parent[i] = k
				}
				i = nxt
			}
		}
	}
	return parent
}

// N returns the matrix dimension.
func (ch *SparseCholesky) N() int { return ch.n }

// SolveVecTo solves A·x = b into dst and returns dst. dst may alias b.
func (ch *SparseCholesky) SolveVecTo(dst, b []float64) []float64 {
	if len(b) != ch.n || len(dst) != ch.n {
		panic(fmt.Sprintf("mat: sparse Cholesky solve length %d/%d, want %d", len(dst), len(b), ch.n))
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	// Forward L·y = b, column-oriented.
	for j := 0; j < ch.n; j++ {
		yj := dst[j] / ch.diag[j]
		dst[j] = yj
		for p := ch.colPtr[j]; p < ch.colPtr[j+1]; p++ {
			dst[ch.rowIdx[p]] -= ch.val[p] * yj
		}
	}
	// Backward Lᵀ·x = y: row j of Lᵀ is column j of L.
	for j := ch.n - 1; j >= 0; j-- {
		s := dst[j]
		for p := ch.colPtr[j]; p < ch.colPtr[j+1]; p++ {
			s -= ch.val[p] * dst[ch.rowIdx[p]]
		}
		dst[j] = s / ch.diag[j]
	}
	return dst
}

// SolveVec solves A·x = b into a new vector.
func (ch *SparseCholesky) SolveVec(b []float64) []float64 {
	dst := make([]float64, ch.n)
	copy(dst, b)
	return ch.SolveVecTo(dst, dst)
}
