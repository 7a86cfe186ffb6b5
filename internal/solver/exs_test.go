package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// exsGrid is the pinned EXS grid: meshes 2x1, 3x1, 3x2 and 3x3, 2–5 paper
// levels, Tmax 55/60/65/70 °C, the inactive mode allowed and disallowed.
func exsGrid(t *testing.T, visit func(Problem)) {
	t.Helper()
	for _, mesh := range [][2]int{{2, 1}, {3, 1}, {3, 2}, {3, 3}} {
		md, err := thermal.Default(mesh[0], mesh[1])
		if err != nil {
			t.Fatal(err)
		}
		for levels := 2; levels <= 5; levels++ {
			ls, err := power.PaperLevels(levels)
			if err != nil {
				t.Fatal(err)
			}
			for _, tmax := range []float64{55, 60, 65, 70} {
				for _, off := range []bool{false, true} {
					visit(Problem{Model: md, Levels: ls, TmaxC: tmax,
						Overhead: power.DefaultOverhead(), DisallowOff: off})
				}
			}
		}
	}
}

// The digest and total Evals of EXS over exsGrid, pinned from the
// sequential depth-first branch-and-bound before it was folded into the
// parallel search: a sha256 over each result's schedule string, the bits
// of its throughput and its feasibility, in grid order.
const (
	exsGridDigest = "a04eabe4f45fc2e96fe3f03b3437cbcee6ed14b6893560249fa4926924d2413d"
	exsGridEvals  = 969626
)

// EXS must return the pinned assignments at every width, not just equally
// good ones: the mesh grids have mirror-image optima in different
// subtrees, and which worker finishes first must not pick between them
// (AO seeds from this assignment, so a timing-dependent tie-break would
// make served plans differ run to run). One worker must also visit
// exactly the nodes the sequential search visited. The wider widths
// repeat to give the scheduler a chance to reorder the workers.
func TestEXSReproducesPinnedDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 2, 2, 4, 4, 4} {
		h := sha256.New()
		var evals int64
		var bits [8]byte
		exsGrid(t, func(p Problem) {
			p.Workers = workers
			res, err := EXS(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Name != "EXS" {
				t.Fatalf("name = %q", res.Name)
			}
			sched := "<nil>"
			if res.Schedule != nil {
				sched = res.Schedule.String()
			}
			h.Write([]byte(sched))
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(res.Throughput))
			h.Write(bits[:])
			if res.Feasible {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			evals += res.Evals
		})
		if got := hex.EncodeToString(h.Sum(nil)); got != exsGridDigest {
			t.Fatalf("workers=%d: digest %s, want %s", workers, got, exsGridDigest)
		}
		if workers == 1 && evals != exsGridEvals {
			t.Fatalf("workers=1: %d evals, want %d", evals, exsGridEvals)
		}
	}
}

// Problem.Workers = 1 must make AO fully sequential, EXS seed included,
// so its evaluation count is reproducible however many CPUs the process
// may use.
func TestAOWorkersOneEvalsReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := problem(t, 3, 3, 4, 55)
	p.Workers = 1
	seen := map[int64]int{}
	for i := 0; i < 20; i++ {
		res, err := AO(p)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Evals]++
	}
	if len(seen) != 1 {
		t.Fatalf("20 Workers=1 AO solves gave %d distinct Evals: %v", len(seen), seen)
	}
}

// A single core has only the core-0 subtrees, each a leaf.
func TestEXSSingleCore(t *testing.T) {
	md, err := thermal.Default(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(3)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Model: md, Levels: ls, TmaxC: 65, Workers: 4}
	res, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := EXSNaive(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-naive.Throughput) > 1e-9 {
		t.Fatalf("single-core EXS %v != naive %v", res.Throughput, naive.Throughput)
	}
}

// When even the coldest assignment overheats, the root node refuses the
// whole tree before any subtree is dispatched.
func TestEXSInfeasible(t *testing.T) {
	p := problem(t, 3, 1, 2, 38)
	p.DisallowOff = true
	p.Workers = 3
	res, err := EXS(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || res.Schedule != nil {
		t.Fatal("expected infeasible")
	}
	if res.Evals != 1 {
		t.Fatalf("infeasible root visited %d nodes, want 1", res.Evals)
	}
}

func TestEXSRace(t *testing.T) {
	// Exercised under -race in CI: many concurrent searches on one model.
	p := problem(t, 3, 2, 3, 55)
	p.Workers = 3
	done := make(chan error, 4)
	for k := 0; k < 4; k++ {
		go func() {
			_, err := EXS(p)
			done <- err
		}()
	}
	for k := 0; k < 4; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
