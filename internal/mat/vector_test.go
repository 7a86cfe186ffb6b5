package mat

import "testing"

func TestVecBasics(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if !VecEqual(VecAdd(x, y), []float64{5, 7, 9}, 0) {
		t.Fatal("VecAdd")
	}
	if !VecEqual(VecSub(y, x), []float64{3, 3, 3}, 0) {
		t.Fatal("VecSub")
	}
	if VecSum(x) != 6 {
		t.Fatal("VecSum")
	}
	c := VecClone(x)
	c[0] = 99
	if x[0] == 99 {
		t.Fatal("VecClone shares storage")
	}
}

func TestVecInPlaceOps(t *testing.T) {
	x := []float64{1, 2}
	VecAddInPlace(x, []float64{10, 20})
	if !VecEqual(x, []float64{11, 22}, 0) {
		t.Fatal("VecAddInPlace")
	}
	VecAXPY(x, 2, []float64{1, 1})
	if !VecEqual(x, []float64{13, 24}, 0) {
		t.Fatal("VecAXPY")
	}
}

func TestVecMax(t *testing.T) {
	v := []float64{3, -1, 7, 2}
	max, imax := VecMax(v)
	if max != 7 || imax != 2 {
		t.Fatalf("VecMax = %v@%d", max, imax)
	}
}

func TestVecMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty VecMax")
		}
	}()
	VecMax(nil)
}

func TestVecNorms(t *testing.T) {
	v := []float64{3, -4}
	if VecNormInf(v) != 4 {
		t.Fatal("VecNormInf")
	}
}

func TestVecFillAndAllGE(t *testing.T) {
	v := VecFill(3, 2.5)
	if !VecEqual(v, []float64{2.5, 2.5, 2.5}, 0) {
		t.Fatal("VecFill")
	}
	if !VecAllGE([]float64{2, 3}, []float64{2, 2}) {
		t.Fatal("VecAllGE should hold")
	}
	if VecAllGE([]float64{2, 1}, []float64{2, 2}) {
		t.Fatal("VecAllGE should fail")
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	VecAdd([]float64{1}, []float64{1, 2})
}
