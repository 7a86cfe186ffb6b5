// Package floorplan models the physical layout of a multi-core die: a
// rectangular grid of identical square cores, as in the paper's evaluated
// 2×1, 3×1, 3×2 and 3×3 configurations with 4×4 mm² cores at the 65 nm
// node. The floorplan supplies the geometry (areas, shared-edge lengths,
// adjacency) that the compact RC thermal model turns into conductances.
package floorplan

import (
	"fmt"
	"math"
)

// Floorplan describes a grid of identical square cores.
type Floorplan struct {
	// RowsN and ColsN give the grid shape; cores are numbered row-major,
	// core index = r*ColsN + c.
	RowsN, ColsN int
	// CoreEdge is the side length of each (square) core in meters.
	CoreEdge float64
}

// Grid returns a rows×cols floorplan of square cores with the given edge
// length in meters.
func Grid(rows, cols int, coreEdge float64) (*Floorplan, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("floorplan: invalid grid %d×%d", rows, cols)
	}
	if !(coreEdge > 0) || math.IsInf(coreEdge, 0) { // rejects NaN and ±Inf too
		return nil, fmt.Errorf("floorplan: invalid core edge %g m", coreEdge)
	}
	return &Floorplan{RowsN: rows, ColsN: cols, CoreEdge: coreEdge}, nil
}

// MustGrid is Grid that panics on error, for tests and static tables.
func MustGrid(rows, cols int, coreEdge float64) *Floorplan {
	f, err := Grid(rows, cols, coreEdge)
	if err != nil {
		panic(err)
	}
	return f
}

// NumCores returns the total number of cores.
func (f *Floorplan) NumCores() int { return f.RowsN * f.ColsN }

// CoreArea returns the area of a single core in m².
func (f *Floorplan) CoreArea() float64 { return f.CoreEdge * f.CoreEdge }

// Position returns the grid row and column of core i.
func (f *Floorplan) Position(i int) (row, col int) {
	f.checkIndex(i)
	return i / f.ColsN, i % f.ColsN
}

// Index returns the core index at grid position (row, col).
func (f *Floorplan) Index(row, col int) int {
	if row < 0 || row >= f.RowsN || col < 0 || col >= f.ColsN {
		panic(fmt.Sprintf("floorplan: position (%d,%d) outside %d×%d grid", row, col, f.RowsN, f.ColsN))
	}
	return row*f.ColsN + col
}

// Neighbors returns the indices of cores sharing an edge with core i,
// in ascending order.
func (f *Floorplan) Neighbors(i int) []int {
	r, c := f.Position(i)
	var out []int
	if r > 0 {
		out = append(out, f.Index(r-1, c))
	}
	if c > 0 {
		out = append(out, f.Index(r, c-1))
	}
	if c < f.ColsN-1 {
		out = append(out, f.Index(r, c+1))
	}
	if r < f.RowsN-1 {
		out = append(out, f.Index(r+1, c))
	}
	return out
}

// Adjacent reports whether cores i and j share an edge.
func (f *Floorplan) Adjacent(i, j int) bool {
	ri, ci := f.Position(i)
	rj, cj := f.Position(j)
	dr, dc := ri-rj, ci-cj
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr+dc == 1
}

// SharedEdge returns the length (meters) of the boundary shared by cores
// i and j, or 0 if they are not adjacent. For a grid of identical square
// cores every shared edge has length CoreEdge.
func (f *Floorplan) SharedEdge(i, j int) float64 {
	if f.Adjacent(i, j) {
		return f.CoreEdge
	}
	return 0
}

// CenterDistance returns the distance between the centers of cores i and j
// in meters.
func (f *Floorplan) CenterDistance(i, j int) float64 {
	ri, ci := f.Position(i)
	rj, cj := f.Position(j)
	dr := float64(ri - rj)
	dc := float64(ci - cj)
	return f.CoreEdge * math.Sqrt(dr*dr+dc*dc)
}

// BoundaryEdges returns, for core i, the total length of its perimeter not
// shared with any other core (exposed to the die edge), in meters. It is
// used to model slightly better lateral heat escape for edge/corner cores.
func (f *Floorplan) BoundaryEdges(i int) float64 {
	return float64(4-len(f.Neighbors(i))) * f.CoreEdge
}

// String renders the floorplan shape, e.g. "3x2 grid (4.0 mm cores)".
func (f *Floorplan) String() string {
	return fmt.Sprintf("%dx%d grid (%.1f mm cores)", f.RowsN, f.ColsN, f.CoreEdge*1e3)
}

func (f *Floorplan) checkIndex(i int) {
	if i < 0 || i >= f.NumCores() {
		panic(fmt.Sprintf("floorplan: core index %d outside [0,%d)", i, f.NumCores()))
	}
}
