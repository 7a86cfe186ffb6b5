package sim

import (
	"sync"
	"testing"

	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

func engineSpecs(n int) []schedule.TwoModeSpec {
	specs := make([]schedule.TwoModeSpec, n)
	for i := range specs {
		specs[i] = schedule.TwoModeSpec{
			Low:       power.NewMode(0.6),
			High:      power.NewMode(1.3),
			HighRatio: 0.25 + 0.06*float64(i%7),
		}
	}
	return specs
}

func engineSchedule(t testing.TB, n int) (*thermal.Model, *schedule.Schedule) {
	t.Helper()
	rows, cols := 3, n/3
	if n < 4 {
		rows, cols = n, 1
	}
	md, err := thermal.Default(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.TwoMode(20e-3, engineSpecs(n))
	if err != nil {
		t.Fatal(err)
	}
	return md, s
}

// Engine.Stable must be bit-identical to the uncached NewStable — start,
// every interval end, and dense samples alike.
func TestEngineStableBitIdentical(t *testing.T) {
	md, s := engineSchedule(t, 6)
	eng := NewEngine(md)
	direct, err := NewStable(md, s)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ { // second run exercises warm caches
		cached, err := eng.Stable(s)
		if err != nil {
			t.Fatal(err)
		}
		a, b := direct.Start(), cached.Start()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("run %d: start[%d] %v != %v", run, i, b[i], a[i])
			}
		}
		for q := 0; q < direct.NumIntervals(); q++ {
			a, b = direct.End(q), cached.End(q)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("run %d: end[%d][%d] %v != %v", run, q, i, b[i], a[i])
				}
			}
		}
		dp, dc, dat := direct.PeakDense(24)
		cp, cc, cat := cached.PeakDense(24)
		if dp != cp || dc != cc || dat != cat {
			t.Fatalf("run %d: PeakDense (%v,%d,%v) != (%v,%d,%v)", run, cp, cc, cat, dp, dc, dat)
		}
	}
}

// The period pool must hand back one shared PeriodCache per distinct
// period and keep distinct periods apart.
func TestEnginePeriodCachePooled(t *testing.T) {
	md, s := engineSchedule(t, 3)
	eng := NewEngine(md)
	a, err := eng.PeriodCache(s.Period())
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.PeriodCache(s.Period())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same period built twice")
	}
	c, err := eng.PeriodCache(s.Period() / 2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct periods shared one cache")
	}
	if _, err := eng.PeriodCache(-1); err == nil {
		t.Fatal("negative period must error")
	}
}

// The composed evaluator (EvalArena.ComposedEndPeak) must agree with the
// classic Theorem-1 path to solver tolerance on step-up schedules.
func TestStepUpPeakComposedMatchesClassic(t *testing.T) {
	for _, n := range []int{2, 3, 6, 9} {
		md, _ := engineSchedule(t, n)
		checkComposedMatchesClassic(t, NewEngine(md), 20e-3, engineSpecs(n))
	}
}

// Concurrent period construction and stable solves must be safe (-race)
// and deterministic.
func TestEngineConcurrent(t *testing.T) {
	md, s := engineSchedule(t, 6)
	eng := NewEngine(md)
	want, _, err := eng.StepUpPeak(s)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 8
	errs := make([]error, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 1; k <= 20; k++ {
				cyc := s.Cycle(1 + (w+k)%5)
				if _, err := eng.Stable(cyc); err != nil {
					errs[w] = err
					return
				}
			}
			got, _, err := eng.StepUpPeak(s)
			if err != nil {
				errs[w] = err
				return
			}
			if got != want {
				errs[w] = errMismatch{got, want}
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

type errMismatch struct{ got, want float64 }

func (e errMismatch) Error() string {
	return "peak mismatch under concurrency"
}
