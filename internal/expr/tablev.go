package expr

import (
	"fmt"
	"io"
	"time"

	"thermosc/internal/power"
	"thermosc/internal/report"
	"thermosc/internal/solver"
)

// TableV reproduces the computation-time comparison of §VI-D: wall-clock
// time and evaluation counts of AO, PCO, EXS (branch-and-bound) and the
// faithful EXS-naive (Algorithm 1) across {2,3,6,9} cores × {2..5} levels
// at Tmax = 65 °C.
//
// Absolute seconds are machine- and implementation-dependent (the authors
// ran MATLAB; this is compiled Go) — the reproduced claims are the
// *scaling shapes*: EXS-naive grows as levels^N, AO's cost is dominated by
// the m-search and the TPT adjustment and stays polynomial, and PCO costs
// a constant factor more than AO.
func TableV(w io.Writer, cfg Config) error {
	configs := paperConfigs
	levelCounts := []int{2, 3, 4, 5}
	if cfg.Quick {
		configs = configs[:2]
		levelCounts = []int{2, 3}
	}
	const tmaxC = 65.0

	t := report.NewTable("Table V: computation cost (time; steady/peak evaluations in parentheses)",
		"platform", "levels", "AO", "PCO", "EXS (pruned)", "EXS-naive (Alg. 1)")
	type timing struct {
		d time.Duration
		e int64
	}
	fmtT := func(x timing) string {
		return fmt.Sprintf("%.3fs (%d)", x.d.Seconds(), x.e)
	}
	var lastNaive int64
	for _, cc := range configs {
		md, err := platform(cc.Rows, cc.Cols)
		if err != nil {
			return err
		}
		var naivePerLevel []int64
		for _, nl := range levelCounts {
			levels, err := power.PaperLevels(nl)
			if err != nil {
				return err
			}
			p := problem(md, levels, tmaxC)
			// Algorithm 1 as written enumerates f_lowest..f_highest with
			// no inactive mode; match it for the eval-count shape check.
			p.DisallowOff = true
			ao, err := solver.AO(p)
			if err != nil {
				return err
			}
			pco, err := solver.PCO(p)
			if err != nil {
				return err
			}
			exs, err := solver.EXS(p)
			if err != nil {
				return err
			}
			naive, err := solver.EXSNaive(p)
			if err != nil {
				return err
			}
			t.AddRow(cc.Name, fmt.Sprint(nl),
				fmtT(timing{ao.Elapsed, ao.Evals}),
				fmtT(timing{pco.Elapsed, pco.Evals}),
				fmtT(timing{exs.Elapsed, exs.Evals}),
				fmtT(timing{naive.Elapsed, naive.Evals}))
			naivePerLevel = append(naivePerLevel, naive.Evals)
			lastNaive = naive.Evals

			// Shape: Algorithm 1 enumerates exactly levels^N states.
			want := int64(1)
			for k := 0; k < md.NumCores(); k++ {
				want *= int64(nl)
			}
			if naive.Evals != want {
				return fmt.Errorf("expr: tablev %s/%d levels: naive evals %d != %d", cc.Name, nl, naive.Evals, want)
			}
		}
		// Shape: naive cost strictly grows with the level count.
		for k := 1; k < len(naivePerLevel); k++ {
			if naivePerLevel[k] <= naivePerLevel[k-1] {
				return fmt.Errorf("expr: tablev %s: naive evals not growing with levels", cc.Name)
			}
		}
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "Largest Algorithm 1 enumeration: %d assignments (paper's MATLAB run exceeded 2 hours at 9 cores × 5 levels; compiled Go absorbs the same exponential count far faster — the exponent, not the constant, is the reproduced claim).\n\n", lastNaive)
	return nil
}
