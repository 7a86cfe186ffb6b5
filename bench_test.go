package thermosc_test

// One benchmark per paper artifact (Tables II/III & V, Figs. 2-7) plus
// micro-benchmarks for the kernels the schedulers lean on. Regenerate the
// full evaluation with:
//
//	go test -bench=. -benchmem
//
// The Benchmark<Artifact> functions execute the same code paths as
// `thermosc-experiments -run <artifact>` (in quick mode, writing to
// io.Discard), so their wall-clock times are directly comparable across
// machines and revisions.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"thermosc"

	"thermosc/internal/expr"
	"thermosc/internal/floorplan"
	"thermosc/internal/governor"
	"thermosc/internal/power"
	"thermosc/internal/rt"
	"thermosc/internal/schedule"
	"thermosc/internal/sim"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := expr.Config{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := expr.Run(name, io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_III regenerates the §III motivation tables.
func BenchmarkTableII_III(b *testing.B) { benchExperiment(b, "motivation") }

// BenchmarkFig2 regenerates the single-core vs all-core oscillation study.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates the phase-sweep step-up bound study.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates the 6-core step-up trace study.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates the 9-core peak-vs-m study.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the cores × levels throughput comparison.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the cores × Tmax throughput comparison.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTableV regenerates the computation-time comparison.
func BenchmarkTableV(b *testing.B) { benchExperiment(b, "tablev") }

// BenchmarkAblation regenerates the repository's ablation studies.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// --- solver micro-benchmarks -------------------------------------------

func benchProblem(b *testing.B, rows, cols, levels int, tmax float64) solver.Problem {
	b.Helper()
	md, err := thermal.Default(rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := power.PaperLevels(levels)
	if err != nil {
		b.Fatal(err)
	}
	return solver.Problem{Model: md, Levels: ls, TmaxC: tmax, Overhead: power.DefaultOverhead()}
}

func BenchmarkAO3x1(b *testing.B) {
	p := benchProblem(b, 3, 1, 2, 65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.AO(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCO3x1(b *testing.B) {
	p := benchProblem(b, 3, 1, 2, 65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.PCO(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEXSPruned9x5(b *testing.B) {
	p := benchProblem(b, 3, 3, 5, 65)
	p.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.EXS(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEXSNaive9x5(b *testing.B) {
	// The paper's Algorithm 1 at its largest evaluated size: 5^9 ≈ 1.95M
	// steady-state evaluations per run (their MATLAB exceeded 2 hours).
	p := benchProblem(b, 3, 3, 5, 65)
	p.DisallowOff = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.EXSNaive(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEXSWide9x5 is BenchmarkEXSPruned9x5 with the core-0 subtrees
// fanned out across GOMAXPROCS workers.
func BenchmarkEXSWide9x5(b *testing.B) {
	p := benchProblem(b, 3, 3, 5, 65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.EXS(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIdealVoltages9(b *testing.B) {
	md, err := thermal.Default(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.IdealVoltages(md, 20, 1.3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- simulator micro-benchmarks ----------------------------------------

func benchSchedule(b *testing.B, n int) (*thermal.Model, *schedule.Schedule) {
	b.Helper()
	rows, cols := 3, n/3
	if n == 2 || n == 3 {
		rows, cols = n, 1
	}
	md, err := thermal.Default(rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedule.TwoMode(20e-3, benchSpecs(n))
	if err != nil {
		b.Fatal(err)
	}
	return md, s
}

// benchSpecs is the two-mode decomposition behind benchSchedule's cycle.
func benchSpecs(n int) []schedule.TwoModeSpec {
	specs := make([]schedule.TwoModeSpec, n)
	for i := range specs {
		specs[i] = schedule.TwoModeSpec{
			Low:       power.NewMode(0.6),
			High:      power.NewMode(1.3),
			HighRatio: 0.3 + 0.05*float64(i%8),
		}
	}
	return specs
}

func BenchmarkStableSolve9(b *testing.B) {
	md, s := benchSchedule(b, 9)
	cache, err := sim.NewPeriodCache(md, s.Period())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewStableCached(md, s, cache); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeakDense9(b *testing.B) {
	md, s := benchSchedule(b, 9)
	st, err := sim.NewStable(md, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.PeakDense(24)
	}
}

func BenchmarkPeriodCache9(b *testing.B) {
	md, s := benchSchedule(b, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewPeriodCache(md, s.Period()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- gated benchmarks ----------------------------------------------------
//
// These are the rows of BENCH_ao.json, in report order, and the
// dense-vs-sparse crossover sweep: cmd/thermosc-bench runs them through
// `go test -bench` and gates the result. Rerun one row by hand with, e.g.,
//
//	go test -run '^$' -bench '^BenchmarkServeBurst$' -benchmem .

// BenchmarkAOSearch pits the sequential reference m-search (Workers=1,
// row ao_search_seq) against the worker-pool fan-out (Workers=GOMAXPROCS,
// row ao_search_par). Both produce bit-identical plans (see
// internal/solver/determinism_test.go); the ratio seq/par is the parallel
// speedup reported by cmd/thermosc-bench. On a single-CPU machine the two
// coincide — the speedup only shows at 4+ cores (the CI bench job).
func BenchmarkAOSearch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			p := benchProblem(b, 3, 3, 2, 55)
			p.Workers = bc.workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.AO(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAOAnytimeHalfBudget is the degraded path (row
// ao_anytime_halfbudget): the sequential AO solve of BenchmarkAOSearch
// under a context deadline of half its median full-solve time on this
// machine, so the deadline lands mid-search on fast and slow hardware
// alike, walked through the truncate-or-floor chain the serving layer
// uses. Its ns/op is bounded by the budget, so the row gates the cost of
// serving under starvation, not the search.
func BenchmarkAOAnytimeHalfBudget(b *testing.B) {
	p := benchProblem(b, 3, 3, 2, 55)
	p.Workers = 1
	times := make([]time.Duration, 5)
	for i := range times {
		start := time.Now()
		if _, err := solver.AO(p); err != nil {
			b.Fatal(err)
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	budget := times[len(times)/2] / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		q := p
		q.Ctx = ctx
		// A complete plan and a tagged best-so-far both keep the anytime
		// contract; a deadline before any incumbent falls to the floor.
		res, err := solver.AO(q)
		if errors.Is(err, solver.ErrDeadline) {
			_, err = solver.SafeFloor(q)
		} else if err == nil && res.Schedule == nil {
			err = errors.New("no schedule and no error")
		}
		cancel()
		if err != nil {
			b.Fatalf("anytime solve broke its contract: %v", err)
		}
	}
}

// BenchmarkPeakEval compares the three stable-status peak evaluators on
// the 9-core platform (rows peak_eval_<name>):
//
//	classic  — NewStableCached + PeakEndOfPeriod against a bare
//	           PeriodCache (the pre-engine hot path),
//	engine   — the same evaluation through sim.Engine, hitting the warmed
//	           propagator cache (bit-identical result),
//	composed — the m-search's screening step on one arena: SetTwoMode
//	           plus the eigenbasis evaluator ComposedEndPeak (agrees to
//	           ≲1e-8 K, not bit-identical).
func BenchmarkPeakEval(b *testing.B) {
	md, s := benchSchedule(b, 9)
	b.Run("classic", func(b *testing.B) {
		cache, err := sim.NewPeriodCache(md, s.Period())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := sim.NewStableCached(md, s, cache)
			if err != nil {
				b.Fatal(err)
			}
			st.PeakEndOfPeriod()
		}
	})
	b.Run("engine", func(b *testing.B) {
		benchWarmPeak(b, md, s)
	})
	b.Run("composed", func(b *testing.B) {
		eng := sim.NewEngine(md)
		a := eng.AcquireArena()
		defer eng.ReleaseArena(a)
		specs := benchSpecs(md.NumCores())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.SetTwoMode(20e-3, specs); err != nil {
				b.Fatal(err)
			}
			if _, err := a.ComposedEndPeak(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWarmPeak times one stable-peak evaluation of s through a sim.Engine
// whose caches an untimed first evaluation has warmed.
func benchWarmPeak(b *testing.B, md *thermal.Model, s *schedule.Schedule) {
	b.Helper()
	eng := sim.NewEngine(md)
	if _, _, err := eng.StepUpPeak(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.StepUpPeak(s); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSparse256(b *testing.B) (*thermal.Model, *schedule.Schedule) {
	b.Helper()
	md, err := thermal.BuildGen(floorplan.BigLittleStacked(8, 8, 4, 0.5, 4), power.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	if !md.SparsePath() {
		b.Fatal("256-core platform on the dense backend")
	}
	s, err := schedule.TwoMode(20e-3, benchSpecs(md.NumCores()))
	if err != nil {
		b.Fatal(err)
	}
	return md, s
}

// BenchmarkPeakEvalSparse measures one warmed stable-peak evaluation on
// the 256-core stacked big.LITTLE platform through the sparse backend
// (PCG stable start + exponential actions; row peak_eval_sparse_256).
func BenchmarkPeakEvalSparse(b *testing.B) {
	md, s := benchSparse256(b)
	benchWarmPeak(b, md, s)
}

// BenchmarkServeBurst is the serving path (row serve_burst): one op is 16
// concurrent /v1/maximize requests on mesh-3x3, zipf-skewed over four
// thresholds (8/4/2/2) — the shape production bursts take, a few hot
// thresholds on a hot platform — through a fresh default-config server,
// so the singleflight, the plan cache and the shared per-platform engine
// all start cold.
func BenchmarkServeBurst(b *testing.B) {
	var bodies [][]byte
	for ki, reps := range []int{8, 4, 2, 2} {
		body, err := json.Marshal(thermosc.MaximizeRequest{
			Platform: thermosc.PlatformSpec{Rows: 3, Cols: 3, PaperLevels: 2},
			TmaxC:    []float64{55, 58, 61, 64}[ki],
			Method:   thermosc.MethodAO,
		})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < reps; r++ {
			bodies = append(bodies, body)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := thermosc.NewServer(thermosc.ServerConfig{})
		codes := make(chan int, len(bodies))
		var wg sync.WaitGroup
		for _, body := range bodies {
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/maximize", bytes.NewReader(body)))
				codes <- rec.Code
			}(body)
		}
		wg.Wait()
		close(codes)
		for code := range codes {
			if code != http.StatusOK {
				b.Fatalf("burst request answered %d", code)
			}
		}
	}
}

// BenchmarkAOSearch256 is the headline scale solve (row ao_search_256):
// full AO on the 256-core stacked big.LITTLE platform (sparse backend +
// scale policy). A degraded or infeasible plan fails the run outright, so
// a scale-policy regression cannot pass as a faster number.
func BenchmarkAOSearch256(b *testing.B) {
	md, _ := benchSparse256(b)
	ls, err := power.PaperLevels(3)
	if err != nil {
		b.Fatal(err)
	}
	p := solver.Problem{Model: md, Levels: ls, TmaxC: 70, Overhead: power.DefaultOverhead()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.AO(p)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible || res.Degraded != solver.DegradedNone {
			b.Fatalf("256-core AO plan: feasible %v, degraded %q", res.Feasible, res.Degraded)
		}
	}
}

// BenchmarkCrossover runs the same meshes on both thermal algebra
// backends across the sizes that bracket thermal.SparseCrossoverDim, so
// the report shows where the sparse path overtakes the dense one on this
// machine. build is the backend's one-time factorization (Jacobi
// eigendecomposition + SPD inverse densely; sparse Cholesky +
// power-iteration τ on the sparse path) and reports the model's thermal
// node count as "nodes"; eval is one warmed stable-peak evaluation, the
// cost the solvers pay afterwards.
func BenchmarkCrossover(b *testing.B) {
	for _, rows := range []int{4, 6, 8, 10, 12} {
		g := floorplan.Mesh(rows, rows)
		for _, alg := range []thermal.Algebra{thermal.AlgebraDense, thermal.AlgebraSparse} {
			build := func(b *testing.B) *thermal.Model {
				md, err := thermal.BuildGen(g, power.DefaultModel(), thermal.WithAlgebra(alg))
				if err != nil {
					b.Fatal(err)
				}
				return md
			}
			b.Run(g.Name+"/"+alg.String()+"/build", func(b *testing.B) {
				var md *thermal.Model
				for i := 0; i < b.N; i++ {
					md = build(b)
				}
				b.ReportMetric(float64(md.NumNodes()), "nodes")
			})
			b.Run(g.Name+"/"+alg.String()+"/eval", func(b *testing.B) {
				md := build(b)
				s, err := schedule.TwoMode(20e-3, benchSpecs(md.NumCores()))
				if err != nil {
					b.Fatal(err)
				}
				benchWarmPeak(b, md, s)
			})
		}
	}
}

// --- closed-loop component benchmarks -----------------------------------

func BenchmarkGovernorClosedLoop(b *testing.B) {
	md, err := thermal.Default(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		b.Fatal(err)
	}
	pol := &governor.StepWise{TripC: 62, HystK: 2, Levels: ls.Len()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := governor.Simulate(md, ls, pol, governor.Sensor{PeriodS: 10e-3}, 65, 10, 2, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEDFSimulation(b *testing.B) {
	tasks := []rt.Task{
		{Name: "a", WCET: 30e-3, Period: 100e-3},
		{Name: "b", WCET: 20e-3, Period: 40e-3},
		{Name: "c", WCET: 5e-3, Period: 25e-3},
	}
	profile := []rt.SpeedSeg{
		{Length: 1e-3, Speed: 0.6},
		{Length: 1e-3, Speed: 1.3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.SimulateEDF(tasks, profile, 2.0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- public API benchmark ----------------------------------------------

func BenchmarkPublicCompare3x1(b *testing.B) {
	plat, err := thermosc.New(3, 1, thermosc.WithPaperLevels(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.Compare(65); err != nil {
			b.Fatal(err)
		}
	}
}
