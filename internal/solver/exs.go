package solver

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
)

// EXSNaive is a faithful transcription of the paper's Algorithm 1: it
// enumerates every constant per-core mode assignment (levels^N of them),
// computes the steady-state temperature T∞ = −A⁻¹B for each, and keeps the
// feasible assignment with the largest speed sum. Exponential in the core
// count — this is the baseline whose running time Table V reports.
func EXSNaive(p Problem) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	start := now()
	n := p.Model.NumCores()
	tmax := p.tmaxRise()
	volts := candidateVoltages(p)
	hcc := coreResponseMatrix(p)
	pm := p.Model.Power()
	psi := make([]float64, len(volts))
	for k, v := range volts {
		psi[k] = pm.Static(power.NewMode(v))
	}

	idx := make([]int, n)
	bestSum := math.Inf(-1)
	var best []int
	var evals int64
	tempBuf := make([]float64, n)
	for {
		evals++
		if evals&1023 == 0 {
			if err := p.ctxErr(); err != nil {
				// Anytime: the incumbent (if any) is a fully-evaluated
				// feasible assignment — return it tagged Degraded rather
				// than discarding the work done so far.
				if best != nil {
					res, rerr := exsResult(p, "EXS-naive", best, bestSum, evals, start)
					if rerr == nil {
						res.Degraded = DegradedEXS
						return res, nil
					}
				}
				return nil, deadlineErr(err)
			}
		}
		// T∞ at the cores for this assignment.
		for i := range tempBuf {
			tempBuf[i] = 0
		}
		var speedSum float64
		for j, k := range idx {
			w := psi[k]
			col := hcc[j]
			for i := range tempBuf {
				tempBuf[i] += w * col[i]
			}
			speedSum += volts[k]
		}
		maxT, _ := mat.VecMax(tempBuf)
		if maxT <= tmax && speedSum > bestSum {
			bestSum = speedSum
			best = append(best[:0], idx...)
		}
		// Odometer increment.
		d := n - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(volts) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	return exsResult(p, "EXS-naive", best, bestSum, evals, start)
}

// EXS is the branch-and-bound variant of Algorithm 1: identical optimum
// to EXSNaive, but prunes subtrees whose best-case completion is already
// infeasible or cannot beat the incumbent. A completion's speed is bounded
// twice: with every remaining core at the top level, and by the Lagrangian
// bound that prices temperature with the duals of the execution-fraction
// LP relaxation (exsRelaxation, docs/THEORY.md §6). The second bound holds
// for any nonnegative prices, so the LP decides how much it prunes, never
// what EXS returns. It is the default EXS used by the comparison
// experiments; EXPERIMENTS.md reports both running times.
//
// The top-level branches (core 0's candidate modes) form a work queue for
// p.workers() goroutines that share the incumbent bound, and the merge
// walks the subtrees in depth-first order, so every width returns the
// same assignment — when several tie for the optimum, the one the
// depth-first order reaches first. Workers refresh the shared bound at
// every subtree root: a late subtree inherits the best bound found so far
// and prunes harder than a cold search of it would. With one worker the
// search is the plain sequential depth-first branch-and-bound, node for
// node, so its Evals are reproducible; above one worker they depend on
// how the subtrees interleave.
func EXS(p Problem) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	start := now()
	n := p.Model.NumCores()
	tmax := p.tmaxRise()
	volts := candidateVoltages(p) // ascending
	hcc := coreResponseMatrix(p)
	pm := p.Model.Power()
	psi := make([]float64, len(volts))
	for k, v := range volts {
		psi[k] = pm.Static(power.NewMode(v))
	}
	psiMin := psi[0]

	// minSuffix[j][i]: temperature contribution at core i if cores j..n−1
	// all run at the minimum level — the least any completion can add.
	minSuffix := make([][]float64, n+1)
	minSuffix[n] = make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		row := mat.VecClone(minSuffix[j+1])
		mat.VecAXPY(row, psiMin, hcc[j])
		minSuffix[j] = row
	}
	// maxSpeedSuffix[j]: speed sum if cores j..n−1 all run at max level.
	maxSpeedSuffix := make([]float64, n+1)
	for j := n - 1; j >= 0; j-- {
		maxSpeedSuffix[j] = maxSpeedSuffix[j+1] + volts[len(volts)-1]
	}

	// The root node: even the coldest assignment overheats. minSuffix sums
	// a completion from the last core back, while the path to its leaf
	// sums from core 0, so an interior test allows sumSlack of rounding:
	// only the leaf, which compares its own sums, is held to the limit
	// exactly.
	const sumSlack = 1e-9 // K
	limit := tmax + feasTol
	totalEvals := int64(1)
	for i := 0; i < n; i++ {
		if minSuffix[0][i] > limit+sumSlack {
			return exsResult(p, "EXS", nil, math.Inf(-1), totalEvals, start)
		}
	}

	// The dual bound (docs/THEORY.md §6). For temperature prices y ≥ 0, a
	// feasible leaf below a node at depth j, whose assigned cores heat the
	// cores by temps, has speed sum at most
	//
	//	speedSum + y·(T − temps) + Σ_{j'≥j} max_k (v_k − ψ_k·g_j'),
	//
	// g_j' = Σ_i y_i·hcc[j'][i], because its temperatures are ≤ T and each
	// remaining core picks one level. ydot = y·temps rides down the tree,
	// so the test costs O(1) per node. The bound holds for any y ≥ 0; the
	// LP relaxation's duals make it tight, and y = 0 reduces it to
	// maxSpeedSuffix. dualMargin absorbs its rounding, so a pruned subtree
	// holds no leaf that beats the incumbent.
	const dualMargin = 1e-7
	y := exsDuals(hcc, volts, psi, limit, p.ctxErr)
	var yT float64
	for _, yi := range y {
		yT += yi * limit
	}
	g := make([]float64, n)
	dualSuffix := make([]float64, n+1)
	for j := n - 1; j >= 0; j-- {
		for i, yi := range y {
			g[j] += yi * hcc[j][i]
		}
		best := math.Inf(-1)
		for k, v := range volts {
			best = max(best, v-psi[k]*g[j])
		}
		dualSuffix[j] = dualSuffix[j+1] + best
	}

	// Shared incumbent value, which later subtrees prune against, the
	// core-0 level of the first subtree in depth-first order known to
	// reach it, and each subtree's own optimum, indexed by core 0's
	// level. The merge after the search walks the subtrees high levels
	// first, so a tie goes to the subtree the depth-first order visits
	// first, not to whichever worker finished first.
	var mu sync.Mutex
	bestSum, bestFrom := math.Inf(-1), -1
	jobSum := make([]float64, len(volts))
	jobIdx := make([][]int, len(volts))
	// Cooperative cancellation: any worker observing an expired context
	// raises the flag; the others unwind their subtrees immediately.
	var stop atomic.Bool

	// Work queue: core-0 level indices, high levels first (better seeds).
	jobs := make(chan int)
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		idx := make([]int, n)
		temps0 := make([]float64, n)
		var evals int64
		// bound is what a node's best completion must beat. Until the
		// subtree has its own incumbent (localIdx) it is the shared
		// incumbent, nudged one ulp down when that came from a subtree
		// visited later in depth-first order: a tie found here comes
		// first, so it must survive. After that it is the subtree's own
		// incumbent.
		var bound float64
		var localIdx []int

		// Depth-indexed scratch: the dfs visits one node at a time, so
		// the child state of depth j can live in row j+1 — one allocation
		// for the worker's whole share of the tree, not one per interior
		// node.
		scratchBuf := make([]float64, (n+2)*n)
		scratch := make([][]float64, n+2)
		for d := range scratch {
			scratch[d] = scratchBuf[d*n : (d+1)*n : (d+1)*n]
		}

		var dfs func(j int, temps []float64, speedSum, ydot float64)
		dfs = func(j int, temps []float64, speedSum, ydot float64) {
			evals++
			// Poll the context every 64 evals (a node costs O(n) flops, so
			// 64 of them is well under one schedule evaluation): a cancel
			// lands within one eval's worth of work, not a whole subtree
			// later.
			if evals&63 == 0 && p.ctxErr() != nil {
				stop.Store(true)
				return
			}
			if speedSum+maxSpeedSuffix[j] <= bound {
				return // cannot beat the incumbent
			}
			if speedSum+yT-ydot+dualSuffix[j]+dualMargin <= bound {
				return // nor can it once temperature is priced in
			}
			// Feasibility bound: even the coldest completion overheats.
			lim := limit + sumSlack
			if j == n {
				lim = limit
			}
			for i := 0; i < n; i++ {
				if temps[i]+minSuffix[j][i] > lim {
					return
				}
			}
			if j == n {
				// At a leaf the bound check above compared the speed sum
				// itself: the leaf beats the incumbent.
				bound = speedSum
				localIdx = append(localIdx[:0], idx...)
				return
			}
			// Try levels from highest to lowest so good incumbents appear
			// early and tighten the throughput bound.
			child := scratch[j+1]
			for k := len(volts) - 1; k >= 0; k-- {
				// Stop check: a cancellation unwinds this level between
				// children instead of after the whole fan-out of remaining
				// subtrees.
				if stop.Load() {
					return
				}
				idx[j] = k
				copy(child, temps)
				mat.VecAXPY(child, psi[k], hcc[j])
				dfs(j+1, child, speedSum+volts[k], ydot+psi[k]*g[j])
			}
		}

		for k0 := range jobs {
			// Inherit the freshest shared bound for this subtree.
			mu.Lock()
			bound = bestSum
			if bestFrom < k0 {
				bound = math.Nextafter(bound, math.Inf(-1))
			}
			mu.Unlock()
			localIdx = nil

			idx[0] = k0
			for i := range temps0 {
				temps0[i] = psi[k0] * hcc[0][i]
			}
			dfs(1, temps0, volts[k0], psi[k0]*g[0])

			if localIdx != nil {
				mu.Lock()
				jobSum[k0], jobIdx[k0] = bound, localIdx
				if bound > bestSum || bound == bestSum && k0 > bestFrom {
					bestSum, bestFrom = bound, k0
				}
				mu.Unlock()
			}
		}
		mu.Lock()
		totalEvals += evals
		mu.Unlock()
	}

	workers := min(p.workers(), len(volts))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	for k := len(volts) - 1; k >= 0; k-- {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	var best []int
	bestSum = math.Inf(-1)
	for k := len(volts) - 1; k >= 0; k-- { // depth-first order: high levels first
		if jobIdx[k] != nil && jobSum[k] > bestSum {
			bestSum, best = jobSum[k], jobIdx[k]
		}
	}
	if stop.Load() {
		// Anytime: every worker merged its incumbent before exiting, so
		// `best` is the best fully-evaluated feasible assignment found
		// before the deadline (pruning never admits an infeasible leaf),
		// just not the proven optimum — return it tagged Degraded. No
		// incumbent means the deadline beat every leaf: a typed deadline
		// refusal.
		if best == nil {
			return nil, deadlineErr(p.ctxErr())
		}
		res, err := exsResult(p, "EXS", best, bestSum, totalEvals, start)
		if err != nil {
			return nil, err
		}
		res.Degraded = DegradedEXS
		return res, nil
	}
	return exsResult(p, "EXS", best, bestSum, totalEvals, start)
}

// candidateVoltages returns the constant-mode search space: the discrete
// levels, preceded by the inactive mode (0 V) unless shutdown is
// disallowed.
func candidateVoltages(p Problem) []float64 {
	vs := p.Levels.Voltages()
	if p.DisallowOff {
		return vs
	}
	return append([]float64{0}, vs...)
}

// coreResponseMatrix returns per-core columns of the steady-state map:
// hcc[j][i] is the temperature rise at core i per unit of REFERENCE
// static power commanded at core j — i.e. the unit response scaled by
// core j's heterogeneity factor, so enumeration code can keep a single
// shared ψ(v) table.
func coreResponseMatrix(p Problem) [][]float64 {
	n := p.Model.NumCores()
	ur := p.Model.UnitResponses()
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, n)
		s := p.Model.CoreScale(j)
		for i := 0; i < n; i++ {
			col[i] = s * ur.At(i, j)
		}
		cols[j] = col
	}
	return cols
}

func exsResult(p Problem, name string, best []int, bestSum float64, evals int64, start time.Time) (*Result, error) {
	if best == nil {
		return &Result{
			Name:     name,
			Feasible: false,
			Elapsed:  since(start),
			Evals:    evals,
		}, nil
	}
	volts := candidateVoltages(p)
	modes := make([]power.Mode, len(best))
	for i, k := range best {
		modes[i] = power.NewMode(volts[k])
	}
	sched := schedule.Constant(p.BasePeriod, modes)
	peak, _ := mat.VecMax(p.Model.SteadyStateCores(modes))
	return &Result{
		Name:       name,
		Schedule:   sched,
		Throughput: bestSum / float64(len(best)),
		PeakRise:   peak,
		M:          1,
		Feasible:   peak <= p.tmaxRise()+feasTol,
		Elapsed:    since(start),
		Evals:      evals,
	}, nil
}
