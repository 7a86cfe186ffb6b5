package solver

import (
	"context"
	"errors"
	"math"
	"testing"

	"thermosc/internal/power"
	"thermosc/internal/sim"
	"thermosc/internal/thermal"
)

func msearchProblem(t *testing.T) (Problem, *sim.Engine, []coreSpec) {
	t.Helper()
	md, err := thermal.Default(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Problem{Model: md, Levels: ls, TmaxC: 60, Overhead: power.DefaultOverhead()}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	specs := []coreSpec{
		{Low: power.NewMode(0.8), High: power.NewMode(1.1), RH: 0.4},
		{Low: power.NewMode(0.8), High: power.NewMode(1.1), RH: 0.6},
	}
	return p, sim.NewEngine(md), specs
}

// Every candidate the pool evaluated must be counted, and the count must
// not depend on the worker width. The classic path counts exactly one
// evaluation per candidate; the incremental path counts every composed
// screening plus its deterministic classic confirmations.
func TestSearchMCountsEveryCandidate(t *testing.T) {
	p, eng, specs := msearchProblem(t)
	const maxM = 7
	for _, classic := range []bool{true, false} {
		newEval := newArenaEval
		if classic {
			newEval = newClassicEval
		}
		var ref int64 = -1
		var refM int
		for _, workers := range []int{1, 4} {
			p.Workers = workers
			ev := newEval(p, eng, len(specs))
			ms, err := ev.searchM(specs, 1, maxM)
			ev.release()
			if err != nil {
				t.Fatal(err)
			}
			if ms.m < 1 || math.IsInf(ms.peak, 1) || ms.cache == nil {
				t.Fatalf("classic=%v workers=%d: degenerate result m=%d peak=%v", classic, workers, ms.m, ms.peak)
			}
			if classic && ms.evals != maxM {
				t.Fatalf("workers=%d: classic evals = %d, want %d (one per candidate)", workers, ms.evals, maxM)
			}
			if !classic && ms.evals <= maxM {
				t.Fatalf("workers=%d: incremental evals = %d, want > %d (screens + confirmations)", workers, ms.evals, maxM)
			}
			if ms.truncated || ms.evaluated != maxM {
				t.Fatalf("classic=%v workers=%d: complete scan reported truncated=%v evaluated=%d", classic, workers, ms.truncated, ms.evaluated)
			}
			if ref < 0 {
				ref, refM = ms.evals, ms.m
			} else if ms.evals != ref || ms.m != refM {
				t.Fatalf("classic=%v: result depends on worker width: evals %d vs %d, m %d vs %d",
					classic, ms.evals, ref, ms.m, refM)
			}
		}
	}
}

// A fully-canceled scan (the deadline beat every candidate) must refuse
// with a typed ErrDeadline without losing the count of candidates that
// did evaluate.
func TestSearchMErrorKeepsCount(t *testing.T) {
	p, eng, specs := msearchProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	ev := newArenaEval(p, eng, len(specs))
	defer ev.release()
	ms, err := ev.searchM(specs, 1, 5)
	if err == nil {
		t.Fatal("canceled search returned no error")
	}
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search error %v does not wrap ErrDeadline + context.Canceled", err)
	}
	if ms.m != 0 || ms.cache != nil {
		t.Fatalf("canceled search still picked m=%d", ms.m)
	}
	if ms.evals != 0 {
		t.Fatalf("canceled search claims %d evaluations", ms.evals)
	}
	if !ms.truncated {
		t.Fatal("canceled search not reported as truncated")
	}
}

// The winning period cache is pooled by the engine: the plan built from
// the m-search keeps referencing it, so the pool must keep returning the very
// same cache (never a rebuilt or invalidated one) for the winning period.
func TestSearchMBestCacheStaysPooled(t *testing.T) {
	p, eng, specs := msearchProblem(t)
	ev := newArenaEval(p, eng, len(specs))
	defer ev.release()
	ms, err := ev.searchM(specs, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	bestCache := ms.cache
	if bestCache == nil {
		t.Fatal("no winning cache")
	}
	tc := p.BasePeriod / float64(ms.m)

	// Churn the pool with every other candidate period, then with a burst
	// of unrelated periods.
	for m := 1; m <= 6; m++ {
		if _, err := eng.PeriodCache(p.BasePeriod / float64(m)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 32; i++ {
		if _, err := eng.PeriodCache(p.BasePeriod / float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	again, err := eng.PeriodCache(tc)
	if err != nil {
		t.Fatal(err)
	}
	if again != bestCache {
		t.Fatal("engine pool rebuilt the winning plan's period cache while the plan still references it")
	}

	// The retained cache must still evaluate the winning cycle.
	cyc, err := buildCycle(tc, specs, p.Overhead, cycleThermal)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.NewStableCached(eng.Model(), cyc, bestCache)
	if err != nil {
		t.Fatal(err)
	}
	if peak, _ := st.PeakEndOfPeriod(); !(peak > 0) {
		t.Fatalf("stale cache produced peak %v", peak)
	}
}
