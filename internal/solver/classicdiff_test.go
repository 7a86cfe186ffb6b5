package solver

import (
	"math/rand"
	"testing"
)

// The incremental m-search evaluator (composed eigenbasis screening with
// early termination, plus per-solve arenas) must choose bit-identical
// plans to the classic full-scan reference evaluator (classicEval).
// The sweep mirrors the seeded platform distribution of `make
// verify-diff` (cmd/thermosc-verify drawCase): 1–6 cores, 2–3 paper
// levels, 10–40 ms base periods, thresholds from comfortably feasible to
// borderline infeasible.
func TestIncrementalMatchesClassicSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{1, 1}, {2, 1}, {1, 3}, {2, 2}, {3, 2}}
	periods := []float64{10e-3, 20e-3, 40e-3}
	cases := 12
	if testing.Short() {
		cases = 4
	}
	for i := 0; i < cases; i++ {
		sh := shapes[rng.Intn(len(shapes))]
		levels := 2 + rng.Intn(2)
		period := periods[rng.Intn(len(periods))]
		tmaxC := 50 + 25*rng.Float64()
		p := problem(t, sh[0], sh[1], levels, tmaxC)
		p.BasePeriod = period
		for name, solve := range map[string]func(Problem, newEvalFunc) (*Result, error){
			"AO":  solveAO,
			"PCO": solvePCO,
		} {
			classic, cErr := solve(p, newClassicEval)
			incr, iErr := solve(p, newArenaEval)
			if (cErr == nil) != (iErr == nil) {
				t.Fatalf("case %d %s %dx%d L%d tmax=%.2f: error divergence classic=%v incremental=%v",
					i, name, sh[0], sh[1], levels, tmaxC, cErr, iErr)
			}
			if cErr != nil {
				continue // both refuse identically
			}
			if classic.Throughput != incr.Throughput || classic.PeakRise != incr.PeakRise ||
				classic.M != incr.M || classic.Feasible != incr.Feasible {
				t.Fatalf("case %d %s %dx%d L%d tmax=%.2f period=%v: plan diverged:\n"+
					"  classic     thr=%v peak=%v m=%d feasible=%v\n"+
					"  incremental thr=%v peak=%v m=%d feasible=%v",
					i, name, sh[0], sh[1], levels, tmaxC, period,
					classic.Throughput, classic.PeakRise, classic.M, classic.Feasible,
					incr.Throughput, incr.PeakRise, incr.M, incr.Feasible)
			}
			if (classic.Schedule == nil) != (incr.Schedule == nil) {
				t.Fatalf("case %d %s: schedule presence diverged", i, name)
			}
			if classic.Schedule == nil {
				continue
			}
			for c := 0; c < classic.Schedule.NumCores(); c++ {
				sa, sb := classic.Schedule.CoreSegments(c), incr.Schedule.CoreSegments(c)
				if len(sa) != len(sb) {
					t.Fatalf("case %d %s core %d: segment counts differ (%d vs %d)",
						i, name, c, len(sa), len(sb))
				}
				for q := range sa {
					if sa[q] != sb[q] {
						t.Fatalf("case %d %s core %d segment %d differs: %v vs %v",
							i, name, c, q, sa[q], sb[q])
					}
				}
			}
		}
	}
}
