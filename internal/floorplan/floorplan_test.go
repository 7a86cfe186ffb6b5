package floorplan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridValidation(t *testing.T) {
	if _, err := Grid(0, 3, 4e-3); err == nil {
		t.Fatal("expected error for zero rows")
	}
	if _, err := Grid(3, -1, 4e-3); err == nil {
		t.Fatal("expected error for negative cols")
	}
	if _, err := Grid(3, 3, 0); err == nil {
		t.Fatal("expected error for zero core edge")
	}
	if _, err := Grid(3, 3, 4e-3); err != nil {
		t.Fatal(err)
	}
}

func TestMustGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGrid(0, 0, 1)
}

func TestAreasAndCounts(t *testing.T) {
	f := MustGrid(3, 2, 4e-3)
	if f.NumCores() != 6 {
		t.Fatalf("NumCores = %d", f.NumCores())
	}
	if math.Abs(f.CoreArea()-16e-6) > 1e-12 {
		t.Fatalf("CoreArea = %v", f.CoreArea())
	}
}

func TestPositionIndexRoundTrip(t *testing.T) {
	f := MustGrid(3, 3, 4e-3)
	for i := 0; i < f.NumCores(); i++ {
		r, c := f.Position(i)
		if f.Index(r, c) != i {
			t.Fatalf("round trip failed for core %d", i)
		}
	}
}

func TestNeighbors3x3(t *testing.T) {
	f := MustGrid(3, 3, 4e-3)
	// Center core (index 4) has all four neighbors.
	got := f.Neighbors(4)
	want := []int{1, 3, 5, 7}
	if len(got) != 4 {
		t.Fatalf("center neighbors = %v", got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("center neighbors = %v, want %v", got, want)
		}
	}
	// Corner core 0 has two neighbors.
	if n := f.Neighbors(0); len(n) != 2 || n[0] != 1 || n[1] != 3 {
		t.Fatalf("corner neighbors = %v", n)
	}
	// Edge core 1 has three neighbors.
	if n := f.Neighbors(1); len(n) != 3 {
		t.Fatalf("edge neighbors = %v", n)
	}
}

func TestAdjacency(t *testing.T) {
	f := MustGrid(2, 2, 4e-3)
	if !f.Adjacent(0, 1) || !f.Adjacent(0, 2) {
		t.Fatal("expected adjacency for touching cores")
	}
	if f.Adjacent(0, 3) {
		t.Fatal("diagonal cores are not adjacent")
	}
	if f.Adjacent(1, 1) {
		t.Fatal("a core is not adjacent to itself")
	}
}

func TestSharedEdgeAndBoundary(t *testing.T) {
	f := MustGrid(3, 1, 4e-3)
	if f.SharedEdge(0, 1) != 4e-3 {
		t.Fatalf("SharedEdge = %v", f.SharedEdge(0, 1))
	}
	if f.SharedEdge(0, 2) != 0 {
		t.Fatal("non-adjacent cores must share no edge")
	}
	// In a 3×1 strip, end cores have 3 exposed edges, the middle has 2.
	if f.BoundaryEdges(0) != 3*4e-3 {
		t.Fatalf("BoundaryEdges(0) = %v", f.BoundaryEdges(0))
	}
	if f.BoundaryEdges(1) != 2*4e-3 {
		t.Fatalf("BoundaryEdges(1) = %v", f.BoundaryEdges(1))
	}
}

func TestCenterDistance(t *testing.T) {
	f := MustGrid(2, 2, 4e-3)
	if math.Abs(f.CenterDistance(0, 1)-4e-3) > 1e-12 {
		t.Fatalf("adjacent distance = %v", f.CenterDistance(0, 1))
	}
	if math.Abs(f.CenterDistance(0, 3)-4e-3*math.Sqrt2) > 1e-12 {
		t.Fatalf("diagonal distance = %v", f.CenterDistance(0, 3))
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	f := MustGrid(2, 2, 4e-3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Position(4)
}

// Property: adjacency is symmetric and consistent with Neighbors.
func TestAdjacencySymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(4), 1+r.Intn(4)
		fp := MustGrid(rows, cols, 4e-3)
		n := fp.NumCores()
		for i := 0; i < n; i++ {
			neigh := map[int]bool{}
			for _, j := range fp.Neighbors(i) {
				neigh[j] = true
			}
			for j := 0; j < n; j++ {
				if fp.Adjacent(i, j) != fp.Adjacent(j, i) {
					return false
				}
				if fp.Adjacent(i, j) != neigh[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the sum of shared edges plus boundary edges equals the
// perimeter for every core.
func TestPerimeterConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fp := MustGrid(1+r.Intn(4), 1+r.Intn(4), 4e-3)
		for i := 0; i < fp.NumCores(); i++ {
			var shared float64
			for _, j := range fp.Neighbors(i) {
				shared += fp.SharedEdge(i, j)
			}
			if math.Abs(shared+fp.BoundaryEdges(i)-4*fp.CoreEdge) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	f := MustGrid(3, 2, 4e-3)
	if f.String() != "3x2 grid (4.0 mm cores)" {
		t.Fatalf("String = %q", f.String())
	}
}
