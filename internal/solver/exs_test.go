package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
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

// The digest and total Evals of EXS over exsGrid: a sha256 over each
// result's schedule string, the bits of its throughput and its
// feasibility, in grid order. The digest was pinned from the sequential
// depth-first branch-and-bound. The Evals total is the one the
// dual-price prune reads; the search without it visited 969,626 nodes
// for the same digest.
const (
	exsGridDigest = "a04eabe4f45fc2e96fe3f03b3437cbcee6ed14b6893560249fa4926924d2413d"
	exsGridEvals  = 315125
)

// EXS must return the pinned assignments, not just equally good ones: the
// mesh grids have mirror-image optima in different subtrees, and the
// first in depth-first order must win (AO seeds from this assignment).
// It must also visit exactly the pinned nodes at every Problem.Workers
// width, so AO's Evals, which count them, replay on any host.
func TestEXSReproducesPinnedDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
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
			if workers == 1 {
				if err := checkLPBound(p, res); err != nil {
					t.Fatal(err)
				}
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
		if evals != exsGridEvals {
			t.Fatalf("workers=%d: %d evals, want %d", workers, evals, exsGridEvals)
		}
	}
}

// Problem.Workers = 1 must make AO fully sequential, EXS seed included,
// and its evaluation count must not depend on how many CPUs the process
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

// A single core's tree is the root and one leaf per level.
func TestEXSSingleCore(t *testing.T) {
	md, err := thermal.Default(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(3)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Model: md, Levels: ls, TmaxC: 65}
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
// whole tree before visiting any child.
func TestEXSInfeasible(t *testing.T) {
	p := problem(t, 3, 1, 2, 38)
	p.DisallowOff = true
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

// exsReference is the search EXS must agree with: every constant
// assignment in depth-first order, high levels first, keeping a leaf only
// when it is feasible and its speed sum strictly beats the incumbent's.
// No subtree is pruned. Temperatures and speed sums accumulate in EXS's
// order, core 0 first, so both searches compare the same bits.
func exsReference(t *testing.T, p Problem) *Result {
	t.Helper()
	p, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	n := p.Model.NumCores()
	limit := p.tmaxRise() + feasTol
	volts := candidateVoltages(p)
	hcc := coreResponseMatrix(p)
	psi := make([]float64, len(volts))
	for k, v := range volts {
		psi[k] = p.Model.Power().Static(power.NewMode(v))
	}
	idx := make([]int, n)
	temps := make([][]float64, n+1)
	for d := range temps {
		temps[d] = make([]float64, n)
	}
	var best []int
	bestSum := math.Inf(-1)
	var dfs func(j int, speedSum float64)
	dfs = func(j int, speedSum float64) {
		if j == n {
			for _, ti := range temps[n] {
				if ti > limit {
					return
				}
			}
			if speedSum > bestSum {
				bestSum, best = speedSum, append(best[:0], idx...)
			}
			return
		}
		for k := len(volts) - 1; k >= 0; k-- {
			idx[j] = k
			copy(temps[j+1], temps[j])
			mat.VecAXPY(temps[j+1], psi[k], hcc[j])
			dfs(j+1, speedSum+volts[k])
		}
	}
	dfs(0, 0)
	res, err := exsResult(p, "EXS", best, bestSum, 0, now())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// exsDiffProblems draws the differential instances from one seed: planar
// meshes and 2-layer stacks of at most 8 cores with random per-core power
// scales, 2–4 paper levels, both DisallowOff values, and a Tmax between
// ambient and the all-max steady peak. Heterogeneous and stacked dies are
// where the dual prices prune deepest.
func exsDiffProblems(t *testing.T, seed int64, count int) []Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shapes := []floorplan.GenSpec{
		floorplan.Mesh(2, 2), floorplan.Mesh(3, 2), floorplan.Mesh(4, 2),
		floorplan.Stacked3D(2, 1, 2), floorplan.Stacked3D(3, 1, 2), floorplan.Stacked3D(2, 2, 2),
	}
	var out []Problem
	for len(out) < count {
		g := shapes[rng.Intn(len(shapes))]
		g.Scales = make([]float64, g.NumCores())
		for i := range g.Scales {
			g.Scales[i] = 0.4 + 1.4*rng.Float64()
		}
		md, err := thermal.BuildGen(g, power.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		ls, err := power.PaperLevels(2 + rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		top := make([]power.Mode, md.NumCores())
		for i := range top {
			top[i] = power.NewMode(ls.Max())
		}
		peak, _ := mat.VecMax(md.SteadyStateCores(top))
		out = append(out, Problem{Model: md, Levels: ls,
			TmaxC:       md.Absolute((0.2 + 0.85*rng.Float64()) * peak),
			Overhead:    power.DefaultOverhead(),
			DisallowOff: rng.Intn(2) == 1})
	}
	return out
}

// atLeafPeak moves p's threshold onto the peak of the constant
// assignment leaf, as the depth-first search sums it: the least Tmax
// whose limit Rise(Tmax)+feasTol admits that leaf. Thresholds there are
// where rounding in a bound decides.
func atLeafPeak(t *testing.T, p Problem, leaf []int) Problem {
	t.Helper()
	q, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	volts := candidateVoltages(q)
	hcc := coreResponseMatrix(q)
	temps := make([]float64, q.Model.NumCores())
	for j, k := range leaf {
		mat.VecAXPY(temps, q.Model.Power().Static(power.NewMode(volts[k])), hcc[j])
	}
	peak, _ := mat.VecMax(temps)
	tmax := q.Model.Absolute(peak - feasTol)
	for q.Model.Rise(tmax)+feasTol < peak {
		tmax = math.Nextafter(tmax, math.Inf(1))
	}
	for q.Model.Rise(math.Nextafter(tmax, math.Inf(-1)))+feasTol >= peak {
		tmax = math.Nextafter(tmax, math.Inf(-1))
	}
	p.TmaxC = tmax
	return p
}

// The dual-price prune must not change what EXS returns: on heterogeneous
// meshes and stacks, EXS returns the schedule, throughput bits and
// feasibility of the unpruned reference search. Each instance also runs
// with its threshold on the peak of the reference's optimum and, when
// every core must run, of the coldest assignment.
func TestEXSMatchesUnprunedReference(t *testing.T) {
	var probs []Problem
	for _, p := range exsDiffProblems(t, 27, 48) {
		probs = append(probs, p)
		if ref := exsReference(t, p); ref.Feasible && ref.Throughput > 0 {
			leaf := make([]int, p.Model.NumCores())
			for j := range leaf {
				leaf[j] = slices.Index(candidateVoltages(p), ref.Schedule.ModeAt(j, 0).Voltage)
			}
			probs = append(probs, atLeafPeak(t, p, leaf))
		}
		if p.DisallowOff {
			probs = append(probs, atLeafPeak(t, p, make([]int, p.Model.NumCores())))
		}
	}
	for q, p := range probs {
		got, err := EXS(p)
		if err != nil {
			t.Fatal(err)
		}
		if d := exsDiff(got, exsReference(t, p)); d != "" {
			t.Fatalf("instance %d (%d cores, %d levels, Tmax %.3f °C, DisallowOff %v): %s",
				q, p.Model.NumCores(), p.Levels.Len(), p.TmaxC, p.DisallowOff, d)
		}
	}
}

// exsDiff describes how two EXS results differ in schedule, throughput
// bits or feasibility, or returns "".
func exsDiff(got, want *Result) string {
	str := func(r *Result) string {
		if r.Schedule == nil {
			return "<nil>"
		}
		return r.Schedule.String()
	}
	if str(got) != str(want) || math.Float64bits(got.Throughput) != math.Float64bits(want.Throughput) ||
		got.Feasible != want.Feasible {
		return fmt.Sprintf("got %s (%v, feasible %v), want %s (%v, feasible %v)",
			str(got), got.Throughput, got.Feasible, str(want), want.Throughput, want.Feasible)
	}
	return ""
}
