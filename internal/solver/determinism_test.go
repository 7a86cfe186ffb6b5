package solver

import (
	"math"
	"testing"
)

// The schedulers must be bit-for-bit deterministic: identical problems
// yield identical plans, including PCO's concurrently-evaluated phase
// search (ties broken by the smallest offset) and EXS at four workers
// (shared-bound order must not change the optimum).
func TestSolverDeterminism(t *testing.T) {
	p := problem(t, 3, 2, 3, 58)
	type snap struct {
		thr, peak float64
		m         int
	}
	take := func(f func(Problem) (*Result, error)) snap {
		t.Helper()
		res, err := f(p)
		if err != nil {
			t.Fatal(err)
		}
		return snap{res.Throughput, res.PeakRise, res.M}
	}
	for name, f := range map[string]func(Problem) (*Result, error){
		"AO":  AO,
		"PCO": PCO,
		"EXS": EXS,
		"EXS/4": func(pp Problem) (*Result, error) {
			pp.Workers = 4
			return EXS(pp)
		},
	} {
		first := take(f)
		for k := 0; k < 3; k++ {
			again := take(f)
			if math.Abs(again.thr-first.thr) > 1e-15 ||
				math.Abs(again.peak-first.peak) > 1e-12 ||
				again.m != first.m {
				t.Fatalf("%s run %d diverged: %+v vs %+v", name, k, again, first)
			}
		}
	}
}

// The worker-pool width must be invisible in the output: AO and PCO with
// Workers=4 (or any width) must emit bit-identical plans to the
// sequential reference path (Workers=1) — same schedule segments,
// throughput, peak, and chosen m. Evals is deliberately NOT compared: EXS
// above one worker (AO's seed) visits a scheduling-dependent node count;
// we only assert on the plan here to keep the contract minimal. Covers the seed platforms exercised elsewhere in the suite.
func TestAOPCOWorkersEquivalence(t *testing.T) {
	type plat struct {
		rows, cols, levels int
		tmaxC              float64
	}
	for _, pl := range []plat{
		{2, 1, 2, 65},
		{3, 1, 2, 65},
		{3, 1, 3, 55},
		{3, 2, 2, 55},
	} {
		p := problem(t, pl.rows, pl.cols, pl.levels, pl.tmaxC)
		for name, f := range map[string]func(Problem) (*Result, error){
			"AO":  AO,
			"PCO": PCO,
		} {
			pSeq := p
			pSeq.Workers = 1
			seq, err := f(pSeq)
			if err != nil {
				t.Fatalf("%s %+v sequential: %v", name, pl, err)
			}
			pPar := p
			pPar.Workers = 4
			par, err := f(pPar)
			if err != nil {
				t.Fatalf("%s %+v parallel: %v", name, pl, err)
			}
			if par.Throughput != seq.Throughput || par.PeakRise != seq.PeakRise || par.M != seq.M {
				t.Fatalf("%s %+v: parallel plan diverged: thr %v vs %v, peak %v vs %v, m %d vs %d",
					name, pl, par.Throughput, seq.Throughput, par.PeakRise, seq.PeakRise, par.M, seq.M)
			}
			for i := 0; i < par.Schedule.NumCores(); i++ {
				sa, sb := seq.Schedule.CoreSegments(i), par.Schedule.CoreSegments(i)
				if len(sa) != len(sb) {
					t.Fatalf("%s %+v core %d: segment counts differ (%d vs %d)",
						name, pl, i, len(sa), len(sb))
				}
				for q := range sa {
					if sa[q] != sb[q] {
						t.Fatalf("%s %+v core %d segment %d differs: %v vs %v",
							name, pl, i, q, sa[q], sb[q])
					}
				}
			}
		}
	}
}

// Schedules, not just summary numbers, must repeat exactly.
func TestAOScheduleDeterminism(t *testing.T) {
	p := problem(t, 3, 1, 2, 62)
	a, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AO(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sa, sb := a.Schedule.CoreSegments(i), b.Schedule.CoreSegments(i)
		if len(sa) != len(sb) {
			t.Fatalf("core %d segment counts differ", i)
		}
		for q := range sa {
			if sa[q] != sb[q] {
				t.Fatalf("core %d segment %d differs: %v vs %v", i, q, sa[q], sb[q])
			}
		}
	}
}
