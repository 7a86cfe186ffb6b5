package solver

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"thermosc/internal/mat"
	"thermosc/internal/power"
)

// EXSParallel is EXS with the branch-and-bound search fanned out across
// worker goroutines: the top-level branches (core 0's candidate modes)
// form the work queue, workers share the incumbent bound through a mutex-
// guarded snapshot, and results merge deterministically. It returns the
// identical assignment to EXS — when several assignments tie for the
// optimum, the one EXS's depth-first order reaches first — however the
// workers are scheduled.
//
// Parallel efficiency note: sharing the incumbent is what makes parallel
// branch-and-bound worthwhile — a late worker inherits the best bound
// found so far and prunes harder than a cold sequential run of its
// subtree. Workers refresh the bound at every subtree root; finer sharing
// is not worth the contention at these problem sizes.
func EXSParallel(p Problem, workers int) (*Result, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
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
	psiMin := psi[0]

	// Suffix bounds, shared read-only across workers.
	minSuffix := make([][]float64, n+1)
	minSuffix[n] = make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		row := mat.VecClone(minSuffix[j+1])
		mat.VecAXPY(row, psiMin, hcc[j])
		minSuffix[j] = row
	}
	maxSpeedSuffix := make([]float64, n+1)
	for j := n - 1; j >= 0; j-- {
		maxSpeedSuffix[j] = maxSpeedSuffix[j+1] + volts[len(volts)-1]
	}

	// Shared incumbent value, which later subtrees prune against, and
	// each subtree's own optimum, indexed by core 0's level. The merge
	// after the search walks the subtrees in EXS's order, so a tie goes
	// to the subtree EXS visits first, not to whichever worker finished
	// first.
	var mu sync.Mutex
	bestSum := math.Inf(-1)
	jobSum := make([]float64, len(volts))
	jobIdx := make([][]int, len(volts))
	var totalEvals int64
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
		// floor is the shared incumbent when this subtree started;
		// localBest/localIdx are the subtree's own optimum so far.
		var floor, localBest float64
		var localIdx []int

		// Per-worker depth-indexed scratch (see EXS): one allocation for
		// the worker's whole share of the tree, not one per interior node.
		scratchBuf := make([]float64, (n+2)*n)
		scratch := make([][]float64, n+2)
		for d := range scratch {
			scratch[d] = scratchBuf[d*n : (d+1)*n : (d+1)*n]
		}

		var dfs func(j int, temps []float64, speedSum float64)
		dfs = func(j int, temps []float64, speedSum float64) {
			if stop.Load() {
				return
			}
			evals++
			// Poll the context every 64 evals (a node costs O(n) flops, so
			// 64 of them is well under one schedule evaluation): a cancel
			// lands within one eval's worth of work, not a 1024-node
			// subtree later.
			if evals&63 == 0 && p.ctxErr() != nil {
				stop.Store(true)
				return
			}
			// Another subtree's incumbent prunes only what cannot reach
			// it: a tie found here may come first in EXS's order.
			if ub := speedSum + maxSpeedSuffix[j]; ub < floor || ub <= localBest {
				return
			}
			for i := 0; i < n; i++ {
				if temps[i]+minSuffix[j][i] > tmax+feasTol {
					return
				}
			}
			if j == n {
				if speedSum >= floor && speedSum > localBest {
					localBest = speedSum
					localIdx = append(localIdx[:0], idx...)
				}
				return
			}
			local := scratch[j+1]
			for k := len(volts) - 1; k >= 0; k-- {
				// Inner-loop stop check: a sibling's cancellation unwinds
				// this level between children instead of after the whole
				// fan-out of remaining subtrees.
				if stop.Load() {
					return
				}
				idx[j] = k
				copy(local, temps)
				mat.VecAXPY(local, psi[k], hcc[j])
				dfs(j+1, local, speedSum+volts[k])
			}
		}

		for k0 := range jobs {
			// Inherit the freshest global bound for this subtree.
			mu.Lock()
			floor = bestSum
			mu.Unlock()
			localBest, localIdx = math.Inf(-1), nil

			idx[0] = k0
			for i := range temps0 {
				temps0[i] = psi[k0] * hcc[0][i]
			}
			dfs(1, temps0, volts[k0])

			if localIdx != nil {
				mu.Lock()
				jobSum[k0], jobIdx[k0] = localBest, localIdx
				if localBest > bestSum {
					bestSum = localBest
				}
				mu.Unlock()
			}
		}
		mu.Lock()
		totalEvals += evals
		mu.Unlock()
	}

	if n == 1 {
		// Degenerate: no parallelism to extract; fall back.
		res, err := EXS(p)
		if err != nil {
			return nil, err
		}
		res.Name = "EXS-parallel"
		return res, nil
	}

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
	for k := len(volts) - 1; k >= 0; k-- { // EXS's order: high levels first
		if jobIdx[k] != nil && jobSum[k] > bestSum {
			bestSum, best = jobSum[k], jobIdx[k]
		}
	}
	if stop.Load() {
		// Anytime: every worker merged its incumbent before exiting, so
		// `best` is the best fully-evaluated feasible assignment found
		// before the deadline — return it tagged Degraded. No incumbent
		// means the deadline beat every leaf: a typed deadline refusal.
		if best == nil {
			return nil, deadlineErr(p.ctxErr())
		}
		res, err := exsResult(p, "EXS-parallel", best, bestSum, totalEvals, start)
		if err != nil {
			return nil, err
		}
		res.Degraded = DegradedEXS
		return res, nil
	}

	if best == nil {
		return exsResult(p, "EXS-parallel", nil, bestSum, totalEvals, start)
	}
	return exsResult(p, "EXS-parallel", best, bestSum, totalEvals, start)
}
