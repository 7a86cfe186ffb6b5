package mat

import "math"

// Vector helpers. Vectors are plain []float64 throughout the project; these
// free functions keep the call sites terse and allocation-conscious.

// VecClone returns a copy of x.
func VecClone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// VecAdd returns x + y as a new vector.
func VecAdd(x, y []float64) []float64 {
	checkSameLen(x, y)
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// VecSub returns x − y as a new vector.
func VecSub(x, y []float64) []float64 {
	checkSameLen(x, y)
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// VecAddInPlace adds y to x in place and returns x.
func VecAddInPlace(x, y []float64) []float64 {
	checkSameLen(x, y)
	for i := range x {
		x[i] += y[i]
	}
	return x
}

// VecAXPY computes x += s·y in place and returns x.
func VecAXPY(x []float64, s float64, y []float64) []float64 {
	checkSameLen(x, y)
	for i := range x {
		x[i] += s * y[i]
	}
	return x
}

// VecMax returns the largest element of x and its index.
// It panics on an empty vector.
func VecMax(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("mat: VecMax of empty vector")
	}
	best, idx := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, idx = v, i+1
		}
	}
	return best, idx
}

// VecSum returns the sum of the elements of x.
func VecSum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// VecNormInf returns the maximum absolute element of x.
func VecNormInf(x []float64) float64 {
	var max float64
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// VecEqual reports whether x and y have the same length and all elements
// within tol of each other.
func VecEqual(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}

// VecFill returns a length-n vector with every element set to v.
func VecFill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// VecAllGE reports whether every element of x is ≥ every corresponding
// element of y (element-wise ≥, the paper's matrix comparison operator).
func VecAllGE(x, y []float64) bool {
	checkSameLen(x, y)
	for i := range x {
		if x[i] < y[i] {
			return false
		}
	}
	return true
}

func checkSameLen(x, y []float64) {
	if len(x) != len(y) {
		panic("mat: vector length mismatch")
	}
}
