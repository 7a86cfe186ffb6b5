// Package mat provides the dense linear algebra kernels used by the thermal
// model and schedulers: basic matrix/vector arithmetic, LU factorization,
// a cyclic Jacobi symmetric eigensolver, eigendecomposition of
// diagonally-symmetrizable matrices, and the matrix exponential (both a
// Padé scaling-and-squaring implementation and a fast eigendecomposition
// path).
//
// The package is deliberately self-contained (standard library only) and
// tuned for the small-to-medium dense systems that compact RC thermal
// models produce (tens of nodes), while remaining correct for larger ones.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// RawData exposes the backing slice (row-major). Mutating it mutates the
// matrix; callers that need isolation should Clone first.
func (m *Dense) RawData() []float64 { return m.data }

// Diag returns a copy of the main diagonal.
func (m *Dense) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m.data[i*m.cols+i]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddM returns m + b as a new matrix.
func (m *Dense) AddM(b *Dense) *Dense {
	checkSameDims(m, b, "AddM")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// SubM returns m − b as a new matrix.
func (m *Dense) SubM(b *Dense) *Dense {
	checkSameDims(m, b, "SubM")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// SubInPlace subtracts b from m in place and returns m.
func (m *Dense) SubInPlace(b *Dense) *Dense {
	checkSameDims(m, b, "SubInPlace")
	for i, v := range b.data {
		m.data[i] -= v
	}
	return m
}

// AddScaledInPlace adds s*b to m in place and returns m.
func (m *Dense) AddScaledInPlace(s float64, b *Dense) *Dense {
	checkSameDims(m, b, "AddScaledInPlace")
	for i, v := range b.data {
		m.data[i] += s * v
	}
	return m
}

// Mul returns the matrix product m·b as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %d×%d · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	// ikj loop order for cache friendliness on row-major storage.
	for i := 0; i < m.rows; i++ {
		arow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	return m.MulVecTo(make([]float64, m.rows), x)
}

// MulVecTo computes m·x into dst (len(dst) == rows) and returns dst. Each
// entry is its row's products with x summed in column order from zero.
// dst must not alias x.
func (m *Dense) MulVecTo(dst, x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d×%d · %d", m.rows, m.cols, len(x)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecTo destination length %d, want %d", len(dst), m.rows))
	}
	// Four rows at a time: their four sums are independent, so each one's
	// additions overlap the others' instead of waiting on their own
	// latency, and every row keeps its column order, so its bits.
	n := len(x)
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		r0, r1 := m.data[i*n:][:n], m.data[(i+1)*n:][:n]
		r2, r3 := m.data[(i+2)*n:][:n], m.data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.rows; i++ {
		row := m.data[i*n:][:n]
		var s float64
		for j, v := range x {
			s += row[j] * v
		}
		dst[i] = s
	}
	return dst
}

// MulDiagLeft returns diag(d)·m as a new matrix (scales row i by d[i]).
func (m *Dense) MulDiagLeft(d []float64) *Dense {
	if len(d) != m.rows {
		panic("mat: MulDiagLeft dimension mismatch")
	}
	out := m.Clone()
	for i := 0; i < m.rows; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j := range row {
			row[j] *= d[i]
		}
	}
	return out
}

// MulDiagRight returns m·diag(d) as a new matrix (scales column j by d[j]).
func (m *Dense) MulDiagRight(d []float64) *Dense {
	if len(d) != m.cols {
		panic("mat: MulDiagRight dimension mismatch")
	}
	out := m.Clone()
	for i := 0; i < m.rows; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j := range row {
			row[j] *= d[j]
		}
	}
	return out
}

// Norm1 returns the maximum absolute column sum of m.
func (m *Dense) Norm1() float64 {
	var max float64
	for j := 0; j < m.cols; j++ {
		var s float64
		for i := 0; i < m.rows; i++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormInf returns the maximum absolute row sum of m.
func (m *Dense) NormInf() float64 {
	var max float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for j := 0; j < m.cols; j++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormFrob returns the Frobenius norm of m.
func (m *Dense) NormFrob() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// IsSquare reports whether m is square.
func (m *Dense) IsSquare() bool { return m.rows == m.cols }

// Equal reports whether m and b have identical dimensions and all elements
// within tol of each other.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "% .6g", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func checkSameDims(a, b *Dense, op string) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
