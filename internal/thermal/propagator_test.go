package thermal

import (
	"sync"
	"testing"

	"thermosc/internal/power"
)

// A cache hit must return exactly the bits a recomputation would produce —
// this is what lets the solvers adopt the cache without perturbing plans.
func TestPropagatorBitIdentical(t *testing.T) {
	md := testModel(t, 3, 2)
	prop := NewPropagator(md)
	modes := []power.Mode{
		power.NewMode(0.6), power.NewMode(1.3), power.ModeOff,
		power.NewMode(0.8), power.NewMode(0.6), power.NewMode(1.3),
	}
	direct := md.SteadyState(modes)
	for k := 0; k < 3; k++ { // first call misses, later calls hit
		cached := prop.SteadyState(modes)
		for i := range direct {
			if cached[i] != direct[i] {
				t.Fatalf("run %d: T∞[%d] = %v, want %v", k, i, cached[i], direct[i])
			}
		}
	}

	state := make([]float64, md.NumNodes())
	for i := range state {
		state[i] = 0.5 * float64(i+1)
	}
	tinf := md.SteadyState(modes)
	for _, dt := range []float64{1e-4, 2.5e-3, 20e-3, 1.0} {
		want := md.StepToward(dt, state, tinf)
		for k := 0; k < 2; k++ {
			got := prop.Step(dt, state, tinf)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dt=%v run %d: state[%d] = %v, want %v", dt, k, i, got[i], want[i])
				}
			}
		}
	}
}

// An off core and a (hypothetical) running core at 0 V have different
// static power; the canonical key must not conflate them.
func TestPropagatorKeyDistinguishesOff(t *testing.T) {
	md := testModel(t, 2, 1)
	prop := NewPropagator(md)
	off := []power.Mode{power.ModeOff, power.NewMode(0.6)}
	zeroV := []power.Mode{{Voltage: 0, Freq: 0.1}, power.NewMode(0.6)}
	a := prop.SteadyState(off)
	b := prop.SteadyState(zeroV)
	// The 0 V running core still burns its leakage floor α.
	if a[0] >= b[0] {
		t.Fatalf("off T∞ %v should be cooler than 0 V-active T∞ %v", a[0], b[0])
	}
}

func TestPropagatorHitMissAccounting(t *testing.T) {
	md := testModel(t, 2, 1)
	prop := NewPropagator(md)
	m1 := []power.Mode{power.NewMode(0.6), power.NewMode(1.3)}
	m2 := []power.Mode{power.NewMode(1.3), power.NewMode(0.6)}

	prop.SteadyState(m1)  // miss
	prop.SteadyState(m1)  // hit
	prop.SteadyState(m2)  // miss
	prop.SteadyState(m1)  // hit
	prop.ExpFactors(1e-3) // miss
	prop.ExpFactors(1e-3) // hit
	prop.ExpFactors(2e-3) // miss

	st := prop.Stats()
	if st.SteadyHits != 2 || st.SteadyMisses != 2 {
		t.Fatalf("steady hits/misses = %d/%d, want 2/2", st.SteadyHits, st.SteadyMisses)
	}
	if st.ExpHits != 1 || st.ExpMisses != 2 {
		t.Fatalf("exp hits/misses = %d/%d, want 1/2", st.ExpHits, st.ExpMisses)
	}
}

// Concurrent mixed-key access must be safe (run under -race in CI) and
// must converge on one shared slice per key.
func TestPropagatorConcurrent(t *testing.T) {
	md := testModel(t, 3, 2)
	prop := NewPropagator(md)
	modeSets := [][]power.Mode{
		{power.NewMode(0.6), power.NewMode(1.3), power.ModeOff, power.NewMode(0.8), power.NewMode(0.6), power.NewMode(1.3)},
		{power.NewMode(1.3), power.NewMode(1.3), power.NewMode(1.3), power.NewMode(0.6), power.NewMode(0.6), power.NewMode(0.6)},
		{power.ModeOff, power.ModeOff, power.NewMode(0.8), power.NewMode(0.8), power.NewMode(1.1), power.NewMode(0.7)},
	}
	state := make([]float64, md.NumNodes())
	for i := range state {
		state[i] = float64(i)
	}
	var wg sync.WaitGroup
	const workers = 8
	results := make([][]float64, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var last []float64
			for k := 0; k < 50; k++ {
				modes := modeSets[(w+k)%len(modeSets)]
				tinf := prop.SteadyState(modes)
				dt := float64(1+k%7) * 1e-3
				last = prop.Step(dt, state, tinf)
				prop.SteadyEigen(modes)
			}
			results[w] = last
		}(w)
	}
	wg.Wait()
	st := prop.Stats()
	if total := st.SteadyMisses + st.SteadyHits; total < workers*50 {
		t.Fatalf("steady lookups %d, want ≥ %d", total, workers*50)
	}
	// Each distinct mode vector is computed once per racing goroutine at
	// worst; after that every lookup must hit.
	if st.SteadyMisses > int64(len(modeSets)*(workers+1)) {
		t.Fatalf("steady misses %d, want ≤ %d", st.SteadyMisses, len(modeSets)*(workers+1))
	}
	// Worker 0's final step used modeSets[49%3] at dt = 1 ms; it must match
	// an uncached recomputation exactly despite the concurrent churn.
	want := md.StepToward(1e-3, state, md.SteadyState(modeSets[49%len(modeSets)]))
	for i := range want {
		if results[0][i] != want[i] {
			t.Fatalf("concurrent result diverged at node %d: %v vs %v", i, results[0][i], want[i])
		}
	}
}

// Each of the propagator's maps holds at most propagatorCap entries
// however many distinct keys arrive, and a value recomputed after a map
// was cleared has the bits a fresh computation gives.
func TestPropagatorCacheBounded(t *testing.T) {
	md := testModel(t, 3, 2)
	prop := NewPropagator(md)
	sizes := func() (int, int, int) {
		prop.mu.RLock()
		defer prop.mu.RUnlock()
		return len(prop.tinf), len(prop.teig), len(prop.exps)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	dt := func(q int) float64 { return 1e-4 * float64(q+1) }
	for q := 0; q < 10000; q++ {
		same("exp", prop.ExpFactors(dt(q)), md.Eigen().ExpLambda(dt(q)))
		if _, _, ne := sizes(); ne > propagatorCap {
			t.Fatalf("after %d lengths the exp map holds %d entries", q+1, ne)
		}
	}
	modes := func(q int) []power.Mode {
		m := uniformModes(md.NumCores(), 0.6)
		m[q%len(m)] = power.NewMode(0.6 + 1e-4*float64(q))
		return m
	}
	for q := 0; q < 5000; q++ {
		want := md.SteadyState(modes(q))
		same("T∞", prop.SteadyState(modes(q)), want)
		same("W⁻¹T∞", prop.SteadyEigen(modes(q)), md.Eigen().Winv.MulVec(want))
		if nt, ng, _ := sizes(); nt > propagatorCap || ng > propagatorCap {
			t.Fatalf("after %d mode vectors the maps hold %d and %d entries", q+1, nt, ng)
		}
	}
	// The early keys were cleared: a second lookup recomputes them.
	before := prop.Stats()
	same("exp", prop.ExpFactors(dt(0)), md.Eigen().ExpLambda(dt(0)))
	same("T∞", prop.SteadyState(modes(0)), md.SteadyState(modes(0)))
	after := prop.Stats()
	if after.ExpMisses != before.ExpMisses+1 || after.SteadyMisses != before.SteadyMisses+1 {
		t.Fatalf("cleared keys hit: exp misses %d → %d, steady misses %d → %d",
			before.ExpMisses, after.ExpMisses, before.SteadyMisses, after.SteadyMisses)
	}
}
