// Dense-vs-sparse differential suite: every generated floorplan up to
// the paper's 6x6 corpus is built on BOTH algebra backends and the three
// kernels the solver stack relies on — steady states, the action of the
// matrix exponential, and stable-orbit peak evaluation — must agree to
// 1e-8 relative. The sweep is seeded, so CI pins one deterministic set of
// mode vectors, states, and schedules forever.
//
// This is an external test package so it can drive internal/sim (which
// imports thermal) for the peak comparisons.
package thermal_test

import (
	"math"
	"math/rand"
	"testing"

	"thermosc/internal/floorplan"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/thermal"
)

// diffTol is the dense/sparse differential contract. The backends differ
// algorithmically everywhere (eigenbasis vs Cholesky+Krylov), so exact
// equality is impossible; 1e-8 relative is ~6 orders tighter than any
// thermal decision threshold in the solver.
const diffTol = 1e-8

// diffCatalog is every catalog floorplan small enough that the dense
// eigendecomposition is still cheap — the ≤6x6-equivalent corpus the
// differential contract is pinned on.
func diffCatalog(t *testing.T) []floorplan.GenSpec {
	t.Helper()
	var specs []floorplan.GenSpec
	for _, g := range floorplan.Catalog() {
		if g.NumCores() <= 36 {
			specs = append(specs, g)
		}
	}
	if len(specs) < 5 {
		t.Fatalf("catalog has only %d small floorplans", len(specs))
	}
	return specs
}

// diffPair builds the same generated platform on both backends.
func diffPair(t *testing.T, g floorplan.GenSpec) (dense, sparse *thermal.Model) {
	t.Helper()
	pm := power.DefaultModel()
	dense, err := thermal.BuildGen(g, pm, thermal.WithAlgebra(thermal.AlgebraDense))
	if err != nil {
		t.Fatalf("%s dense: %v", g.Name, err)
	}
	sparse, err = thermal.BuildGen(g, pm, thermal.WithAlgebra(thermal.AlgebraSparse))
	if err != nil {
		t.Fatalf("%s sparse: %v", g.Name, err)
	}
	if dense.SparsePath() || !sparse.SparsePath() {
		t.Fatalf("%s: backend override ignored", g.Name)
	}
	return dense, sparse
}

// maxRel is the max entrywise relative difference, scale floored at 1
// (entries are temperature rises in kelvin; absolute 1e-8 agreement on
// near-zero entries satisfies the same contract).
func maxRel(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// randomModes draws a mode vector from the paper's voltage palette,
// including off cores.
func randomModes(r *rand.Rand, n int) []power.Mode {
	palette := []float64{0, 0.6, 0.8, 1.0, 1.2, 1.3}
	modes := make([]power.Mode, n)
	for i := range modes {
		modes[i] = power.NewMode(palette[r.Intn(len(palette))])
	}
	return modes
}

// Steady states: (G−βE)⁻¹Ψ through the sparse Cholesky must match the
// dense SPD inverse on every floorplan and random mode vector.
func TestDiffSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, g := range diffCatalog(t) {
		dm, sm := diffPair(t, g)
		for trial := 0; trial < 4; trial++ {
			modes := randomModes(r, dm.NumCores())
			d := maxRel(dm.SteadyState(modes), sm.SteadyState(modes))
			if d > diffTol {
				t.Errorf("%s trial %d: steady state diverges by %g", g.Name, trial, d)
			}
			dc := maxRel(dm.SteadyStateCores(modes), sm.SteadyStateCores(modes))
			if dc > diffTol {
				t.Errorf("%s trial %d: core steady state diverges by %g", g.Name, trial, dc)
			}
		}
	}
}

// Exponential action: the truncated-Taylor e^{A·dt}·x must match the
// eigenbasis propagation over the full range of interval lengths the
// solver uses — from microsecond overhead slices to multi-τ settles.
func TestDiffExpAction(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	dts := []float64{5e-6, 1e-3, 20e-3, 0.5, 5}
	for _, g := range diffCatalog(t) {
		dm, sm := diffPair(t, g)
		dim := dm.NumNodes()
		tInf := make([]float64, dim)
		for trial := 0; trial < 3; trial++ {
			x := make([]float64, dim)
			for i := range x {
				x[i] = 40 * (r.Float64() - 0.25)
			}
			for _, dt := range dts {
				want := dm.StepToward(dt, x, tInf) // eigenbasis e^{A·dt}·x
				got := sm.StepToward(dt, x, tInf)  // Krylov action
				if d := maxRel(want, got); d > diffTol {
					t.Errorf("%s trial %d dt=%g: exp action diverges by %g", g.Name, trial, dt, d)
				}
			}
		}
	}
}

// Unit responses feed EXS feasibility and the large-platform candidate
// pruning; both backends must produce the same sensitivity matrix.
func TestDiffUnitResponses(t *testing.T) {
	for _, g := range diffCatalog(t) {
		dm, sm := diffPair(t, g)
		ud, us := dm.UnitResponses(), sm.UnitResponses()
		worst := 0.0
		for i := 0; i < dm.NumNodes(); i++ {
			for j := 0; j < dm.NumCores(); j++ {
				a, b := ud.At(i, j), us.At(i, j)
				d := math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
				if d > worst {
					worst = d
				}
			}
		}
		if worst > diffTol {
			t.Errorf("%s: unit responses diverge by %g", g.Name, worst)
		}
	}
}

// Peak evaluation end to end: stable orbit start, Theorem-1 end-of-period
// peak, and the dense-sampled peak of a seeded random step-up schedule
// must agree across backends on every catalog floorplan.
func TestDiffStablePeak(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	palette := []float64{0.6, 0.8, 1.0, 1.2, 1.3}
	for _, g := range diffCatalog(t) {
		dm, sm := diffPair(t, g)
		n := dm.NumCores()
		for trial := 0; trial < 3; trial++ {
			// A two-mode step-up per core: low then high, seeded split.
			specs := make([]schedule.TwoModeSpec, n)
			for i := range specs {
				lo := palette[r.Intn(3)]
				hi := palette[3+r.Intn(2)]
				specs[i] = schedule.TwoModeSpec{
					Low: power.NewMode(lo), High: power.NewMode(hi),
					HighRatio: 0.25 + 0.5*r.Float64(),
				}
			}
			sched, err := schedule.TwoMode(20e-3, specs)
			if err != nil {
				t.Fatal(err)
			}
			std, err := sim.NewStable(dm, sched)
			if err != nil {
				t.Fatalf("%s dense stable: %v", g.Name, err)
			}
			sts, err := sim.NewStable(sm, sched)
			if err != nil {
				t.Fatalf("%s sparse stable: %v", g.Name, err)
			}
			if d := maxRel(std.Start(), sts.Start()); d > diffTol {
				t.Errorf("%s trial %d: stable start diverges by %g", g.Name, trial, d)
			}
			pd, cd := std.PeakEndOfPeriod()
			ps, cs := sts.PeakEndOfPeriod()
			if cd != cs || math.Abs(pd-ps) > diffTol*math.Max(1, pd) {
				t.Errorf("%s trial %d: end peak dense %v@%d sparse %v@%d",
					g.Name, trial, pd, cd, ps, cs)
			}
			pdd, _, _ := std.PeakDense(24)
			pds, _, _ := sts.PeakDense(24)
			if math.Abs(pdd-pds) > diffTol*math.Max(1, pdd) {
				t.Errorf("%s trial %d: dense-sampled peak %v vs %v", g.Name, trial, pdd, pds)
			}
		}
	}
}

// The automatic crossover must keep the historic corpus (≤ 6x6 planar,
// dim 73) on the bit-exact dense backend and move the large catalog
// entries to sparse.
func TestDiffAutoCrossover(t *testing.T) {
	pm := power.DefaultModel()
	for _, g := range floorplan.Catalog() {
		md, err := thermal.BuildGen(g, pm)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		wantSparse := md.NumNodes() >= thermal.SparseCrossoverDim
		if md.SparsePath() != wantSparse {
			t.Errorf("%s: dim %d with sparse backend %v, want %v", g.Name, md.NumNodes(), md.SparsePath(), wantSparse)
		}
		if md.SparsePath() && md.Eigen() != nil {
			t.Errorf("%s: sparse model carries an eigendecomposition", g.Name)
		}
	}
}
