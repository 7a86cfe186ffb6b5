package sim

import (
	"math"
	"math/rand"
	"testing"

	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

// backendPair builds the same planar platform on both algebra backends.
func backendPair(t testing.TB, rows, cols int) (dense, sparse *thermal.Model) {
	t.Helper()
	fp, err := floorplan.Grid(rows, cols, 4e-3)
	if err != nil {
		t.Fatal(err)
	}
	pp := thermal.HotSpot65nm()
	pm := power.DefaultModel()
	dense, err = thermal.NewModel(fp, pp, pm, thermal.WithAlgebra(thermal.AlgebraDense))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err = thermal.NewModel(fp, pp, pm, thermal.WithAlgebra(thermal.AlgebraSparse))
	if err != nil {
		t.Fatal(err)
	}
	return dense, sparse
}

// maxRelVec is the maximum entrywise relative difference with the scale
// floored at 1 (the states are temperature rises of tens of K; sub-1e-8
// absolute agreement on near-zero entries is equally acceptable).
func maxRelVec(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// The sparse stable status must match the dense reference within the
// repository's 1e-8 dense/sparse differential contract on every stable
// quantity: start state, interval ends, Theorem-1 peak, dense-sampled
// peak, and the energy accounting.
func TestSparseStableMatchesDense(t *testing.T) {
	dm, sm := backendPair(t, 4, 4)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		s := randomStepUp(r, dm.NumCores(), 0.5+r.Float64(), 3)
		std, err := NewStable(dm, s)
		if err != nil {
			t.Fatal(err)
		}
		sts, err := NewStable(sm, s)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxRelVec(std.Start(), sts.Start()); d > 1e-8 {
			t.Fatalf("trial %d: stable start diverges by %g", trial, d)
		}
		last := std.NumIntervals() - 1
		if d := maxRelVec(std.End(last), sts.End(last)); d > 1e-8 {
			t.Fatalf("trial %d: stable end diverges by %g", trial, d)
		}
		pd, cd := std.PeakEndOfPeriod()
		ps, cs := sts.PeakEndOfPeriod()
		if cd != cs || math.Abs(pd-ps) > 1e-8*math.Max(1, pd) {
			t.Fatalf("trial %d: end peak dense %v@%d sparse %v@%d", trial, pd, cd, ps, cs)
		}
		pdd, _, _ := std.PeakDense(8)
		pds, _, _ := sts.PeakDense(8)
		if math.Abs(pdd-pds) > 1e-8*math.Max(1, pdd) {
			t.Fatalf("trial %d: dense-sampled peak %v vs %v", trial, pdd, pds)
		}
		ed, es := std.Energy(), sts.Energy()
		for i := range ed.PerCore {
			if d := math.Abs(ed.PerCore[i]-es.PerCore[i]) / math.Max(1, ed.PerCore[i]); d > 1e-8 {
				t.Fatalf("trial %d: core %d energy diverges by %g", trial, i, d)
			}
		}
	}
}

// The PCG stable start must actually solve (I−K)·x = b: pushing the
// solution through one more exponential action must land back on x − b.
func TestSparseStableStartResidual(t *testing.T) {
	_, sm := backendPair(t, 4, 4)
	cache, err := NewPeriodCache(sm, 20e-3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	b := make([]float64, sm.NumNodes())
	for i := range b {
		b[i] = r.Float64() * 5
	}
	x, err := cache.StableStart(b)
	if err != nil {
		t.Fatal(err)
	}
	kx := sm.ASparse().ExpActionTo(make([]float64, len(x)), 20e-3, x, nil)
	worst := 0.0
	scale := mat.VecNormInf(x)
	for i := range x {
		res := math.Abs(x[i] - kx[i] - b[i])
		if res > worst {
			worst = res
		}
	}
	if worst > 1e-9*math.Max(1, scale) {
		t.Fatalf("stable-start residual %g (state scale %g)", worst, scale)
	}
}

// On the sparse backend the arena evaluation must stay bit-identical to
// the Schedule-based path, exactly as on the dense backend: same stepping
// kernels, same PCG, same order.
func TestSparseArenaBitIdenticalToSchedulePath(t *testing.T) {
	_, sm := backendPair(t, 4, 4)
	eng := NewEngine(sm)
	const tc = 20e-3
	specs := arenaSpecs(sm.NumCores())
	sched, err := schedule.TwoMode(tc, specs)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := eng.PeriodCache(sched.Period())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStableCached(sm, sched, cache)
	if err != nil {
		t.Fatal(err)
	}
	refEnd := sm.CoreTemps(ref.End(ref.NumIntervals() - 1))
	refPeak, _, _ := ref.PeakDense(24)

	a := eng.AcquireArena()
	defer eng.ReleaseArena(a)
	for run := 0; run < 2; run++ {
		if err := a.SetTwoMode(tc, specs); err != nil {
			t.Fatal(err)
		}
		end := make([]float64, sm.NumCores())
		if err := a.StableEndTempsInto(end, cache); err != nil {
			t.Fatal(err)
		}
		for i := range end {
			if end[i] != refEnd[i] {
				t.Fatalf("run %d: arena end temp %d = %v, schedule path %v", run, i, end[i], refEnd[i])
			}
		}
		if err := a.SetTwoMode(tc, specs); err != nil {
			t.Fatal(err)
		}
		peak, err := a.StableDensePeak(cache, 24)
		if err != nil {
			t.Fatal(err)
		}
		if peak != refPeak {
			t.Fatalf("run %d: arena dense peak %v, schedule path %v", run, peak, refPeak)
		}
	}
}

// Arena evaluations on the sparse backend must be allocation-free after
// warm-up, like the dense path: the PR 6 arena discipline carries over.
func TestSparseArenaEvalAllocFree(t *testing.T) {
	_, sm := backendPair(t, 4, 4)
	eng := NewEngine(sm)
	const tc = 20e-3
	specs := arenaSpecs(sm.NumCores())
	sched, err := schedule.TwoMode(tc, specs)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := eng.PeriodCache(sched.Period())
	if err != nil {
		t.Fatal(err)
	}
	a := eng.AcquireArena()
	defer eng.ReleaseArena(a)
	end := make([]float64, sm.NumCores())
	// Warm up the T∞ cache and the expmv scratch.
	if err := a.SetTwoMode(tc, specs); err != nil {
		t.Fatal(err)
	}
	if err := a.StableEndTempsInto(end, cache); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.SetTwoMode(tc, specs); err != nil {
			t.Fatal(err)
		}
		if err := a.StableEndTempsInto(end, cache); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("sparse arena evaluation allocates %v times per run", allocs)
	}
}

// The composed evaluator has no eigenbasis to compose in on the sparse
// backend; the arena must refuse instead of guessing (the solver's sparse
// scale policy screens with exact stable evaluations).
func TestSparseComposedFallsBackToClassic(t *testing.T) {
	_, sm := backendPair(t, 4, 4)
	eng := NewEngine(sm)
	specs := arenaSpecs(sm.NumCores())
	a := eng.AcquireArena()
	defer eng.ReleaseArena(a)
	if err := a.SetTwoMode(20e-3, specs); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ComposedEndPeak(); err == nil {
		t.Fatal("arena ComposedEndPeak should refuse the sparse backend")
	}
}
