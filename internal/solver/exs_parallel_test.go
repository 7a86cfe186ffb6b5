package solver

import (
	"math"
	"testing"

	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// The parallel search must return EXS's exact assignment, not just an
// equally good one: the mesh-3x3 cases have mirror-image optima in
// different subtrees, and which worker finishes first must not pick
// between them (AO seeds from this assignment, so a timing-dependent
// tie-break would make served plans differ run to run). Each width
// repeats to give the scheduler a chance to reorder the workers.
func TestEXSParallelMatchesSequential(t *testing.T) {
	for _, cfg := range []struct {
		rows, cols, levels int
		tmax               float64
	}{
		{2, 1, 2, 65}, {3, 1, 3, 60}, {3, 2, 2, 55}, {3, 3, 3, 65}, {3, 3, 4, 55}, {3, 3, 3, 62},
	} {
		p := problem(t, cfg.rows, cfg.cols, cfg.levels, cfg.tmax)
		seq, err := EXS(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 0} {
			for rep := 0; rep < 10; rep++ {
				par, err := EXSParallel(p, workers)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(par.Throughput-seq.Throughput) > 1e-9 {
					t.Fatalf("%+v workers=%d: parallel %v != sequential %v",
						cfg, workers, par.Throughput, seq.Throughput)
				}
				if par.Feasible != seq.Feasible {
					t.Fatalf("%+v workers=%d: feasibility mismatch", cfg, workers)
				}
				if par.Name != "EXS-parallel" {
					t.Fatalf("name = %q", par.Name)
				}
				if got, want := par.Schedule.String(), seq.Schedule.String(); got != want {
					t.Fatalf("%+v workers=%d: parallel assignment\n%s\ndiffers from sequential\n%s", cfg, workers, got, want)
				}
			}
		}
	}
}

func TestEXSParallelSingleCoreFallback(t *testing.T) {
	md, err := thermal.Default(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(3)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Model: md, Levels: ls, TmaxC: 65}
	res, err := EXSParallel(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-seq.Throughput) > 1e-9 {
		t.Fatalf("fallback mismatch: %v vs %v", res.Throughput, seq.Throughput)
	}
}

func TestEXSParallelInfeasible(t *testing.T) {
	p := problem(t, 3, 1, 2, 38)
	p.DisallowOff = true
	res, err := EXSParallel(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || res.Schedule != nil {
		t.Fatal("expected infeasible")
	}
}

func TestEXSParallelRace(t *testing.T) {
	// Exercised under -race in CI: many concurrent searches on one model.
	p := problem(t, 3, 2, 3, 55)
	done := make(chan error, 4)
	for k := 0; k < 4; k++ {
		go func() {
			_, err := EXSParallel(p, 3)
			done <- err
		}()
	}
	for k := 0; k < 4; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
