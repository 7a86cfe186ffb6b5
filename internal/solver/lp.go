package solver

import "math"

// Tolerances of lpMax: a reduced cost below −lpCostTol lets its column
// enter the basis, and only a column entry above lpPivotTol can pivot.
const (
	lpCostTol  = 1e-12
	lpPivotTol = 1e-9
)

// lpMax solves the linear program
//
//	maximize cᵀx  subject to  A·x ≤ b,  x ≥ 0
//
// where A is m×len(c), row-major in a, and b ≥ 0, so the all-slack basis
// is feasible and no phase 1 is needed. It runs the primal simplex on one
// dense tableau under Bland's rule: the entering column is the lowest
// index with a negative reduced cost, and a ratio tie leaves by the lowest
// basic index. Bland's rule cannot cycle, so the pivot sequence is finite
// and, for given inputs, the same on every run.
//
// At the optimum it returns x and the row duals y: y ≥ 0, Aᵀy ≥ c and
// bᵀy = cᵀx up to rounding. ok is false when b has a negative or
// non-finite entry, the program is unbounded, done reports an error
// between pivots (done may be nil), x or y is not finite, or the pivot
// cap runs out: Bland's rule ends in exact arithmetic, and the cap of 50
// pivots per row and column only bounds a cycle that rounding could
// start.
//
// The tableau — m constraint rows over the structural columns, the slack
// columns and the right-hand side, then the reduced-cost row — lives in
// one backing array, so a solve allocates four times whatever its size.
func lpMax(a, b, c []float64, done func() error) (x, y []float64, ok bool) {
	m, nc := len(b), len(c)
	for _, bi := range b {
		if !(bi >= 0) || math.IsInf(bi, 1) {
			return nil, nil, false
		}
	}
	w := nc + m + 1 // structural, slack, right-hand side
	rhs := w - 1
	t := make([]float64, (m+1)*w)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		row := t[i*w : (i+1)*w]
		copy(row, a[i*nc:(i+1)*nc])
		row[nc+i] = 1
		row[rhs] = b[i]
		basis[i] = nc + i
	}
	obj := t[m*w : (m+1)*w]
	for j, cj := range c {
		obj[j] = -cj
	}

	for pivots := 0; ; pivots++ {
		if pivots > 50*(m+nc) || done != nil && done() != nil {
			return nil, nil, false
		}
		e := -1
		for j := 0; j < w-1; j++ {
			if obj[j] < -lpCostTol {
				e = j
				break
			}
		}
		if e < 0 {
			break // optimal
		}
		r := -1
		var best float64
		for i := 0; i < m; i++ {
			aie := t[i*w+e]
			if aie <= lpPivotTol {
				continue
			}
			ratio := t[i*w+rhs] / aie
			if r < 0 || ratio < best || ratio == best && basis[i] < basis[r] {
				r, best = i, ratio
			}
		}
		if r < 0 {
			return nil, nil, false // unbounded along column e
		}
		prow := t[r*w : (r+1)*w]
		inv := 1 / prow[e]
		for j := range prow {
			prow[j] *= inv
		}
		prow[e] = 1
		for i := 0; i <= m; i++ {
			if i == r {
				continue
			}
			row := t[i*w : (i+1)*w]
			f := row[e]
			if f == 0 {
				continue
			}
			for j, pj := range prow {
				row[j] -= f * pj
			}
			row[e] = 0
		}
		basis[r] = e
	}

	x = make([]float64, nc)
	for i, bi := range basis {
		if bi < nc {
			x[bi] = max(t[i*w+rhs], 0)
		}
	}
	y = make([]float64, m)
	for i := range y {
		y[i] = max(obj[nc+i], 0)
	}
	for _, vs := range [][]float64{x, y} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, false
			}
		}
	}
	return x, y, true
}

// exsRelaxation builds the LP relaxation of EXS's search over execution
// fractions: x_jk ≥ 0 is the share of time core j runs at candidate level
// k, for each nonzero level (off draws nothing and does no work), and
//
//	maximize   Σ_jk v_k·x_jk
//	subject to Σ_jk hcc[j][i]·ψ_k·x_jk ≤ rise   for every core i
//	           Σ_k x_jk ≤ 1                      for every core j.
//
// Rows 0..n−1 are the temperature rows and rows n..2n−1 the convexity
// rows. A constant assignment is the 0/1 point of its own levels, and the
// time average of a periodic schedule's temperatures is the steady state
// of its average power, so neither can beat the optimum (docs/THEORY.md
// §6).
func exsRelaxation(hcc [][]float64, volts, psi []float64, rise float64) (a, b, c []float64) {
	n := len(hcc)
	if len(volts) > 0 && volts[0] == 0 { // candidateVoltages' off mode
		volts, psi = volts[1:], psi[1:]
	}
	nc := n * len(volts)
	a = make([]float64, 2*n*nc)
	b = make([]float64, 2*n)
	c = make([]float64, nc)
	for i := 0; i < n; i++ {
		b[i], b[n+i] = rise, 1
	}
	for j, col := range hcc {
		for k, v := range volts {
			x := j*len(volts) + k
			c[x] = v
			for i, h := range col {
				a[i*nc+x] = h * psi[k]
			}
			a[(n+j)*nc+x] = 1
		}
	}
	return a, b, c
}

// exsDuals returns the temperature-row duals y ≥ 0 of exsRelaxation's
// optimum, or zeros when the LP fails. Any y ≥ 0 gives EXS a valid bound;
// only its strength depends on the LP.
func exsDuals(hcc [][]float64, volts, psi []float64, rise float64, done func() error) []float64 {
	a, b, c := exsRelaxation(hcc, volts, psi, rise)
	if _, y, ok := lpMax(a, b, c, done); ok {
		return y[:len(hcc)]
	}
	return make([]float64, len(hcc))
}
