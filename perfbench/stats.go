package main

import (
	"math"
	"net/http"
	"sort"
)

// nearestRank returns the p-quantile (0 < p <= 1) of an ascending sample
// by the nearest-rank rule: the value at rank ceil(p·n), 1-based.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(len(sorted))))
	k = max(1, min(k, len(sorted)))
	return sorted[k-1]
}

// tailMin is how many samples must lie beyond the reported tail.
const tailMin = 10

// tail returns the nearest-rank p-quantile of an ascending sample and
// the percentile it reports. Each workload fixes p as the highest
// percentile with at least tailMin samples beyond it at the workload's
// size, so the metric keeps its meaning across runs and changes. A run
// too small for p falls back to rank n−tailMin, the highest rank that
// still has tailMin samples beyond it; a sample of tailMin or fewer
// reports its maximum as percentile 100.
func tail(sorted []float64, p float64) (value, percentile float64) {
	n := len(sorted)
	switch {
	case n == 0:
		return 0, 0
	case n <= tailMin:
		return sorted[n-1], 100
	}
	k := int(math.Ceil(p * float64(n)))
	if n-k < tailMin {
		k = n - tailMin
	}
	k = max(k, 1)
	return sorted[k-1], 100 * float64(k) / float64(n)
}

// median of an unsorted sample (sorts a copy; nearest rank).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// accounting classifies every attempted request exactly once. Only ok
// counts as a success: a complete, non-degraded 200.
type accounting struct {
	attempted  int
	ok         int
	degraded   int // 200 carrying a degraded (deadline-truncated) plan
	badBody    int // 200 whose body did not decode
	shed       int // 429
	infeasible int // 422
	timeout    int // 504
	server     int // other 5xx
	transport  int // no HTTP response
	other      int // any other status
}

func account(outs []outcome) accounting {
	a := accounting{attempted: len(outs)}
	for i := range outs {
		o := &outs[i]
		switch {
		case o.status == http.StatusOK && !o.resp.ok:
			a.badBody++
		case o.status == http.StatusOK && o.resp.degraded:
			a.degraded++
		case o.status == http.StatusOK:
			a.ok++
		case o.status == 0:
			a.transport++
		case o.status == http.StatusTooManyRequests:
			a.shed++
		case o.status == http.StatusUnprocessableEntity:
			a.infeasible++
		case o.status == http.StatusGatewayTimeout:
			a.timeout++
		case o.status >= 500:
			a.server++
		default:
			a.other++
		}
	}
	return a
}

func (a accounting) failed() int { return a.attempted - a.ok }

// sum is the total over the classes; it equals attempted by construction,
// and the run checks it.
func (a accounting) sum() int {
	return a.ok + a.degraded + a.badBody + a.shed + a.infeasible + a.timeout + a.server + a.transport + a.other
}
