package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"thermosc/internal/floorplan"
	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// The schedulers must be bit-for-bit deterministic: identical problems
// yield identical plans, including PCO's concurrently-evaluated phase
// search (ties broken by the smallest offset).
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
// throughput, peak and chosen m — after the same number of evaluations.
// Covers the seed platforms exercised elsewhere in the suite.
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
			if par.Throughput != seq.Throughput || par.PeakRise != seq.PeakRise || par.M != seq.M ||
				par.Evals != seq.Evals {
				t.Fatalf("%s %+v: parallel solve diverged: thr %v vs %v, peak %v vs %v, m %d vs %d, evals %d vs %d",
					name, pl, par.Throughput, seq.Throughput, par.PeakRise, seq.PeakRise, par.M, seq.M,
					par.Evals, seq.Evals)
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

// aopcoGrid visits the pinned AO/PCO grid at one worker width: meshes
// 2x1, 3x1, 3x2 and 3x3 × 2–3 paper levels × Tmax 55/60/65/70 °C × AO/PCO
// × the arena and classic evaluators, then AO on the generated mesh-8x8
// (sparse backend, scale policy active) at 60 and 70 °C.
func aopcoGrid(t *testing.T, workers int, visit func(Problem, *Result)) {
	t.Helper()
	solve := func(f func(Problem, newEvalFunc) (*Result, error), p Problem, newEval newEvalFunc) {
		t.Helper()
		p.Workers = workers
		res, err := f(p, newEval)
		if err != nil {
			t.Fatal(err)
		}
		visit(p, res)
	}
	for _, mesh := range [][2]int{{2, 1}, {3, 1}, {3, 2}, {3, 3}} {
		for levels := 2; levels <= 3; levels++ {
			for _, tmax := range []float64{55, 60, 65, 70} {
				p := problem(t, mesh[0], mesh[1], levels, tmax)
				for _, f := range []func(Problem, newEvalFunc) (*Result, error){solveAO, solvePCO} {
					for _, newEval := range []newEvalFunc{newArenaEval, newClassicEval} {
						solve(f, p, newEval)
					}
				}
			}
		}
	}
	md, err := thermal.BuildGen(floorplan.Mesh(8, 8), power.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if !md.SparsePath() {
		t.Fatal("mesh-8x8 is not on the sparse backend")
	}
	ls, err := power.PaperLevels(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tmax := range []float64{60, 70} {
		solve(solveAO, Problem{Model: md, Levels: ls, TmaxC: tmax, Overhead: power.DefaultOverhead()}, newArenaEval)
	}
}

// The digest and total Evals of aopcoGrid: a sha256 over each result's
// per-core segments, the bits of its throughput and peak, its m, its
// feasibility and its degraded reason, in grid order. The digest was
// pinned before the evaluator was chosen once per solve. The Evals total
// counts the EXS seed's nodes (runAO adds them to AO's), so it is the one
// the dual-price prune reads; without the prune it was 434,960 for the
// same digest.
const (
	aopcoGridDigest = "59704bb3f78ba1fd93fefee6f6ed8e4dc7b347bd0c2a71872695dd8828de3611"
	aopcoGridEvals  = 273536
)

// AO and PCO must return the pinned plans on both evaluators and at every
// worker width, after exactly the pinned evaluations. Every feasible plan
// sits under the LP bound.
func TestAOPCOReproducesPinnedDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		h := sha256.New()
		var evals int64
		var bits [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(bits[:], v)
			h.Write(bits[:])
		}
		aopcoGrid(t, workers, func(p Problem, res *Result) {
			if workers == 1 {
				if err := checkLPBound(p, res); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < res.Schedule.NumCores(); i++ {
				for _, seg := range res.Schedule.CoreSegments(i) {
					put(math.Float64bits(seg.Length))
					put(math.Float64bits(seg.Mode.Voltage))
					put(math.Float64bits(seg.Mode.Freq))
				}
			}
			put(math.Float64bits(res.Throughput))
			put(math.Float64bits(res.PeakRise))
			put(uint64(res.M))
			if res.Feasible {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			h.Write([]byte(res.Degraded))
			evals += res.Evals
		})
		if got := hex.EncodeToString(h.Sum(nil)); got != aopcoGridDigest {
			t.Fatalf("workers=%d: digest %s, want %s", workers, got, aopcoGridDigest)
		}
		if evals != aopcoGridEvals {
			t.Fatalf("workers=%d: %d evals, want %d", workers, evals, aopcoGridEvals)
		}
	}
}
