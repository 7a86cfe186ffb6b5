package solver

import (
	"math"
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
// The search is one depth-first pass on the calling goroutine, high
// levels first, and a leaf replaces the incumbent only when its speed sum
// is strictly higher: when several assignments tie for the optimum, EXS
// returns the one the depth-first order reaches first. The nodes it
// visits, and so its Evals, depend on the problem alone.
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

	// minSuffix sums a completion from the last core back, while the path
	// to its leaf sums from core 0, so an interior feasibility test allows
	// sumSlack of rounding: only the leaf, which compares its own sums, is
	// held to the limit exactly.
	const sumSlack = 1e-9 // K
	limit := tmax + feasTol

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

	idx := make([]int, n)
	var best []int
	bestSum := math.Inf(-1)
	var evals int64
	stopped := false
	// temps[j]: the temperatures the cores assigned above depth j add.
	// The dfs visits one node at a time, so one row per depth holds the
	// whole path.
	tempsBuf := make([]float64, (n+1)*n)
	temps := make([][]float64, n+1)
	for d := range temps {
		temps[d] = tempsBuf[d*n : (d+1)*n : (d+1)*n]
	}

	var dfs func(j int, speedSum, ydot float64)
	dfs = func(j int, speedSum, ydot float64) {
		evals++
		// Poll the context every 64 nodes (a node costs O(n) flops, so
		// 64 of them is well under one schedule evaluation): a cancel
		// lands within one eval's worth of work, not a whole subtree
		// later.
		if evals&63 == 0 && p.ctxErr() != nil {
			stopped = true
			return
		}
		if speedSum+maxSpeedSuffix[j] <= bestSum {
			return // cannot beat the incumbent
		}
		if speedSum+yT-ydot+dualSuffix[j]+dualMargin <= bestSum {
			return // nor can it once temperature is priced in
		}
		// Feasibility bound: even the coldest completion overheats. At
		// the root this refuses the whole tree.
		lim := limit + sumSlack
		if j == n {
			lim = limit
		}
		for i, ti := range temps[j] {
			if ti+minSuffix[j][i] > lim {
				return
			}
		}
		if j == n {
			// At a leaf the bound check above compared the speed sum
			// itself: the leaf beats the incumbent.
			bestSum = speedSum
			best = append(best[:0], idx...)
			return
		}
		// Try levels from highest to lowest so good incumbents appear
		// early and tighten the throughput bound. A cancellation unwinds
		// each level between children.
		child := temps[j+1]
		for k := len(volts) - 1; k >= 0 && !stopped; k-- {
			idx[j] = k
			copy(child, temps[j])
			mat.VecAXPY(child, psi[k], hcc[j])
			dfs(j+1, speedSum+volts[k], ydot+psi[k]*g[j])
		}
	}
	dfs(0, 0, 0)

	if stopped {
		// Anytime: pruning never admits an infeasible leaf, so `best` is
		// the best fully-evaluated feasible assignment found before the
		// deadline, just not the proven optimum — return it tagged
		// Degraded. No incumbent means the deadline beat every leaf: a
		// typed deadline refusal.
		if best == nil {
			return nil, deadlineErr(p.ctxErr())
		}
		res, err := exsResult(p, "EXS", best, bestSum, evals, start)
		if err != nil {
			return nil, err
		}
		res.Degraded = DegradedEXS
		return res, nil
	}
	return exsResult(p, "EXS", best, bestSum, evals, start)
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
