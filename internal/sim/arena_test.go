package sim

import (
	"math"
	"sync"
	"testing"

	"thermosc/internal/power"
	"thermosc/internal/schedule"
)

func arenaSpecs(n int) []schedule.TwoModeSpec {
	specs := make([]schedule.TwoModeSpec, n)
	for i := range specs {
		specs[i] = schedule.TwoModeSpec{
			Low:       power.NewMode(0.6),
			High:      power.NewMode(1.3),
			HighRatio: 0.2 + 0.07*float64(i%8),
		}
	}
	// Exercise the degenerate branches of the segment normalization too.
	if n > 2 {
		specs[1].HighRatio = 0 // constant low
		specs[2].HighRatio = 1 // constant high
	}
	return specs
}

// The arena's evaluation of the canonical two-mode cycle must be
// bit-identical to the Schedule-based path: same stable end temperatures,
// same dense peak, on both cold and warm operator caches.
func TestArenaBitIdenticalToSchedulePath(t *testing.T) {
	md, _ := engineSchedule(t, 6)
	eng := NewEngine(md)
	const tc = 20e-3
	specs := arenaSpecs(6)
	sched, err := schedule.TwoMode(tc, specs)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := eng.PeriodCache(sched.Period())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStableCached(md, sched, cache)
	if err != nil {
		t.Fatal(err)
	}
	refEnd := md.CoreTemps(ref.End(ref.NumIntervals() - 1))
	refPeak, _, _ := ref.PeakDense(24)

	a := eng.AcquireArena()
	defer eng.ReleaseArena(a)
	for run := 0; run < 2; run++ { // second run exercises warm caches
		if err := a.SetTwoMode(tc, specs); err != nil {
			t.Fatal(err)
		}
		end := make([]float64, md.NumCores())
		if err := a.StableEndTempsInto(end, cache); err != nil {
			t.Fatal(err)
		}
		for i := range refEnd {
			if end[i] != refEnd[i] {
				t.Fatalf("run %d: end temp %d: arena %v != schedule %v", run, i, end[i], refEnd[i])
			}
		}
		if err := a.SetTwoMode(tc, specs); err != nil {
			t.Fatal(err)
		}
		dp, err := a.StableDensePeak(cache, 24)
		if err != nil {
			t.Fatal(err)
		}
		if dp != refPeak {
			t.Fatalf("run %d: dense peak: arena %v != schedule %v", run, dp, refPeak)
		}
		if err := a.SetSchedule(sched); err != nil {
			t.Fatal(err)
		}
		sp, err := a.StableDensePeak(cache, 24)
		if err != nil {
			t.Fatal(err)
		}
		if sp != refPeak {
			t.Fatalf("run %d: sched dense peak: arena %v != schedule %v", run, sp, refPeak)
		}
	}
}

// checkComposedMatchesClassic requires the arena's composed peak of the
// two-mode schedule (tc, specs) to match the classic Theorem-1 StepUpPeak
// to the documented tolerance (see EvalArena.ComposedEndPeak).
func checkComposedMatchesClassic(t *testing.T, eng *Engine, tc float64, specs []schedule.TwoModeSpec) {
	t.Helper()
	sched, err := schedule.TwoMode(tc, specs)
	if err != nil {
		t.Fatal(err)
	}
	classic, _, err := eng.StepUpPeak(sched)
	if err != nil {
		t.Fatal(err)
	}
	a := eng.AcquireArena()
	defer eng.ReleaseArena(a)
	if err := a.SetTwoMode(tc, specs); err != nil {
		t.Fatal(err)
	}
	cp, err := a.ComposedEndPeak()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(cp - classic); d > 1e-7 {
		t.Fatalf("n=%d tc=%v: composed peak %v diverges from classic %v by %v K", len(specs), tc, cp, classic, d)
	}
}

// The composed screening evaluator must agree with the classic evaluation
// across platform sizes and cycle lengths, including the degenerate
// constant-low and constant-high cores of arenaSpecs.
func TestArenaComposedMatchesEngine(t *testing.T) {
	for _, n := range []int{2, 3, 6, 9} {
		md, _ := engineSchedule(t, n)
		eng := NewEngine(md)
		for _, tc := range []float64{10e-3, 20e-3} {
			checkComposedMatchesClassic(t, eng, tc, arenaSpecs(n))
		}
	}
}

// Releasing an arena must poison every owned buffer (NaN) and make any
// further use panic; cache-shared operator slices must be dropped, not
// poisoned.
func TestArenaPoisonOnRelease(t *testing.T) {
	md, _ := engineSchedule(t, 3)
	eng := NewEngine(md)
	a := eng.AcquireArena()
	if err := a.SetTwoMode(20e-3, arenaSpecs(3)); err != nil {
		t.Fatal(err)
	}
	cache, err := eng.PeriodCache(a.period)
	if err != nil {
		t.Fatal(err)
	}
	end := make([]float64, md.NumCores())
	if err := a.StableEndTempsInto(end, cache); err != nil {
		t.Fatal(err)
	}
	tinf := a.tinfs[0] // shared with the propagator cache
	eng.ReleaseArena(a)

	if !a.released {
		t.Fatal("arena not marked released")
	}
	for name, buf := range map[string][]float64{
		"state": a.state, "start": a.start, "diff": a.diff,
		"ymode": a.ymode, "sample": a.sample, "etot": a.etot,
		"cacc": a.cacc, "expBuf": a.expBuf, "temps": a.temps,
	} {
		for i, v := range buf {
			if !math.IsNaN(v) {
				t.Fatalf("released arena %s[%d] = %v, want NaN poison", name, i, v)
			}
		}
	}
	for q := range a.tinfs {
		if a.tinfs[q] != nil || a.expLs[q] != nil {
			t.Fatalf("released arena still references shared operator slices at interval %d", q)
		}
	}
	for _, v := range tinf {
		if math.IsNaN(v) {
			t.Fatal("release poisoned a propagator-cache-shared slice")
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("use of a released arena did not panic")
		}
	}()
	_ = a.SetTwoMode(20e-3, arenaSpecs(3))
}

// An arena must refuse to be released to an engine it does not belong to:
// its buffers are sized and keyed for its own engine's model.
func TestArenaForeignReleasePanics(t *testing.T) {
	md, _ := engineSchedule(t, 3)
	eng1, eng2 := NewEngine(md), NewEngine(md)
	a := eng1.AcquireArena()
	defer eng1.ReleaseArena(a)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign release did not panic")
		}
	}()
	eng2.ReleaseArena(a)
}

// Arena evaluations must reject caches from other engines and periods —
// the guards that keep a pooled arena from silently mixing solves.
func TestArenaCacheGuards(t *testing.T) {
	md, _ := engineSchedule(t, 3)
	eng, other := NewEngine(md), NewEngine(md)
	a := eng.AcquireArena()
	defer eng.ReleaseArena(a)
	if err := a.SetTwoMode(20e-3, arenaSpecs(3)); err != nil {
		t.Fatal(err)
	}
	end := make([]float64, md.NumCores())
	foreign, err := other.PeriodCache(a.period)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.StableEndTempsInto(end, foreign); err == nil {
		t.Fatal("foreign-engine cache accepted")
	}
	wrong, err := eng.PeriodCache(a.period / 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.StableEndTempsInto(end, wrong); err == nil {
		t.Fatal("wrong-period cache accepted")
	}
	// Four staggered segments per core merge into more intervals than the
	// arena holds (2n+2); SetSchedule must refuse rather than truncate.
	var cores [][]schedule.Segment
	for i := 0; i < md.NumCores(); i++ {
		lead, d := 1e-3+0.3e-3*float64(i), 4e-3
		cores = append(cores, []schedule.Segment{
			{Length: lead, Mode: power.NewMode(0.6)},
			{Length: d, Mode: power.NewMode(1.3)},
			{Length: d, Mode: power.NewMode(0.6)},
			{Length: 20e-3 - lead - 2*d, Mode: power.NewMode(1.3)},
		})
	}
	busy, err := schedule.New(cores)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(busy.Intervals()); n <= 2*md.NumCores()+2 {
		t.Fatalf("test schedule has only %d intervals", n)
	}
	if err := a.SetSchedule(busy); err == nil {
		t.Fatal("over-capacity schedule accepted")
	}
}

// Concurrent workers on one engine must never share arena memory: every
// goroutine acquires its own arena, evaluates the same cycle, and must see
// exactly the reference temperatures (run under -race in CI).
func TestArenaConcurrentSolvesIsolated(t *testing.T) {
	md, _ := engineSchedule(t, 6)
	eng := NewEngine(md)
	const tc = 20e-3
	specs := arenaSpecs(6)
	sched, err := schedule.TwoMode(tc, specs)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := eng.PeriodCache(sched.Period())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStableCached(md, sched, cache)
	if err != nil {
		t.Fatal(err)
	}
	refEnd := md.CoreTemps(ref.End(ref.NumIntervals() - 1))

	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				a := eng.AcquireArena()
				if err := a.SetTwoMode(tc, specs); err != nil {
					errs[w] = err
					eng.ReleaseArena(a)
					return
				}
				end := make([]float64, md.NumCores())
				if err := a.StableEndTempsInto(end, cache); err != nil {
					errs[w] = err
					eng.ReleaseArena(a)
					return
				}
				for i := range refEnd {
					if end[i] != refEnd[i] {
						t.Errorf("worker %d iter %d: end[%d] %v != %v (arena memory shared across solves?)",
							w, iter, i, end[i], refEnd[i])
						eng.ReleaseArena(a)
						return
					}
				}
				eng.ReleaseArena(a)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}
