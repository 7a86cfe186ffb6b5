package solver

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"thermosc/internal/floorplan"
	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// lpBound is the optimum of p's execution-fraction LP over the core count:
// no plan on p's levels whose peak stays within Tmax+feasTol has a higher
// throughput (docs/THEORY.md §6).
func lpBound(p Problem) (float64, error) {
	p, err := p.withDefaults()
	if err != nil {
		return 0, err
	}
	volts := candidateVoltages(p)
	psi := make([]float64, len(volts))
	for k, v := range volts {
		psi[k] = p.Model.Power().Static(power.NewMode(v))
	}
	a, b, c := exsRelaxation(coreResponseMatrix(p), volts, psi, p.tmaxRise()+feasTol)
	x, _, ok := lpMax(a, b, c, nil)
	if !ok {
		return 0, fmt.Errorf("LP relaxation of %d cores failed", p.Model.NumCores())
	}
	var obj float64
	for j, cj := range c {
		obj += cj * x[j]
	}
	return obj / float64(p.Model.NumCores()), nil
}

// checkLPBound fails a feasible plan whose throughput exceeds p's LP
// bound by more than 1e-9.
func checkLPBound(p Problem, res *Result) error {
	if !res.Feasible {
		return nil
	}
	bound, err := lpBound(p)
	if err != nil {
		return err
	}
	if res.Throughput > bound+1e-9 {
		return fmt.Errorf("%s at %.2f °C on %d cores: throughput %.12g above the LP bound %.12g",
			res.Name, p.TmaxC, p.Model.NumCores(), res.Throughput, bound)
	}
	return nil
}

// lpCatalog is the catalog set the bound and the LP fuzz target share:
// mesh-3x3, biglittle-4x4-s1 and stack-3x3x2 at PaperLevels 3.
var lpCatalog = struct {
	once   sync.Once
	models []*thermal.Model
	err    error
}{}

func lpCatalogModels(t testing.TB) []*thermal.Model {
	t.Helper()
	lpCatalog.once.Do(func() {
		for _, g := range []floorplan.GenSpec{floorplan.Mesh(3, 3), floorplan.BigLittle(4, 4, 0.25, 1), floorplan.Stacked3D(3, 3, 2)} {
			md, err := thermal.BuildGen(g, power.DefaultModel())
			if err != nil {
				lpCatalog.err = err
				return
			}
			lpCatalog.models = append(lpCatalog.models, md)
		}
	})
	if lpCatalog.err != nil {
		t.Fatal(lpCatalog.err)
	}
	return lpCatalog.models
}

var lpCatalogTmaxC = []float64{55.5, 58, 61.2, 64, 65.9}

// Every feasible EXS, AO and PCO plan on the catalog platforms sits under
// the LP bound, and a plan pushed just past it fails the check. (The
// pinned EXS and AO/PCO grids check the bound in their digest tests.)
func TestLPBoundsCatalogPlans(t *testing.T) {
	ls, err := power.PaperLevels(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range lpCatalogModels(t) {
		for _, tmax := range lpCatalogTmaxC {
			p := Problem{Model: md, Levels: ls, TmaxC: tmax, Overhead: power.DefaultOverhead()}
			for _, solve := range []func(Problem) (*Result, error){EXS, AO, PCO} {
				res, err := solve(p)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Feasible {
					t.Fatalf("%s at %.1f °C on %d cores is infeasible", res.Name, tmax, md.NumCores())
				}
				if err := checkLPBound(p, res); err != nil {
					t.Fatal(err)
				}
				bound, err := lpBound(p)
				if err != nil {
					t.Fatal(err)
				}
				past := *res
				past.Throughput = math.Nextafter(bound+1e-9, math.Inf(1))
				if checkLPBound(p, &past) == nil {
					t.Fatalf("%s at %.1f °C: throughput %v past the bound %v passed the check",
						res.Name, tmax, past.Throughput, bound)
				}
			}
		}
	}
}

// FuzzEXSLP checks lpMax's optimality certificates on EXS-shaped LPs:
// primal and dual feasibility and equal objectives. plat 0 draws a random
// instance from seed (nonnegative responses, at most 12 cores and 4
// levels); plat 1–3 take a catalog platform at levels+2 paper levels and
// Tmax 55 + tmax mod 11 °C.
func FuzzEXSLP(f *testing.F) {
	for plat := uint8(1); plat <= 3; plat++ {
		for _, tmax := range lpCatalogTmaxC {
			f.Add(plat, int64(plat), uint8(1), tmax-55)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(uint8(0), seed, uint8(seed), float64(seed)*7.5)
	}
	f.Fuzz(func(t *testing.T, plat uint8, seed int64, levels uint8, tmax float64) {
		if math.IsNaN(tmax) || math.IsInf(tmax, 0) {
			tmax = 0
		}
		var hcc [][]float64
		var volts []float64
		var rise float64
		pm := power.DefaultModel()
		if plat%4 == 0 {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(12)
			hcc = make([][]float64, n)
			for j := range hcc {
				hcc[j] = make([]float64, n)
				for i := range hcc[j] {
					hcc[j][i] = 0.5 * rng.Float64()
				}
				hcc[j][j] += 0.5 + 1.5*rng.Float64()
			}
			if seed%2 == 0 {
				volts = append(volts, 0)
			}
			v := 0.3
			for k := 0; k < 1+int(levels%4); k++ {
				v += 0.05 + 0.35*rng.Float64()
				volts = append(volts, v)
			}
			rise = math.Mod(math.Abs(tmax), 60)
		} else {
			md := lpCatalogModels(t)[plat%4-1]
			ls, err := power.PaperLevels(2 + int(levels%3))
			if err != nil {
				t.Fatal(err)
			}
			p := Problem{Model: md, Levels: ls, TmaxC: 55 + math.Mod(math.Abs(tmax), 11), DisallowOff: seed%2 == 1}
			hcc, volts, rise = coreResponseMatrix(p), candidateVoltages(p), p.tmaxRise()+feasTol
		}
		psi := make([]float64, len(volts))
		for k, v := range volts {
			psi[k] = pm.Static(power.NewMode(v))
		}
		a, b, c := exsRelaxation(hcc, volts, psi, rise)
		x, y, ok := lpMax(a, b, c, nil)
		if !ok {
			t.Fatalf("LP of %d cores failed", len(hcc))
		}
		m, nc := len(b), len(c)
		var cx, by float64
		for j, xj := range x {
			if !(xj >= 0) {
				t.Fatalf("x[%d] = %v", j, xj)
			}
			cx += c[j] * xj
		}
		for i := 0; i < m; i++ {
			var ax float64
			for j := 0; j < nc; j++ {
				ax += a[i*nc+j] * x[j]
			}
			if ax > b[i]+1e-9 {
				t.Fatalf("row %d: A·x = %v > b = %v", i, ax, b[i])
			}
			if !(y[i] >= 0) || math.IsInf(y[i], 1) {
				t.Fatalf("y[%d] = %v", i, y[i])
			}
			by += b[i] * y[i]
		}
		for j := 0; j < nc; j++ {
			var aty float64
			for i := 0; i < m; i++ {
				aty += a[i*nc+j] * y[i]
			}
			if aty < c[j]-1e-9 {
				t.Fatalf("column %d: Aᵀy = %v < c = %v", j, aty, c[j])
			}
		}
		if math.Abs(cx-by) > 1e-9*math.Max(1, math.Abs(cx)) {
			t.Fatalf("cᵀx = %v, bᵀy = %v", cx, by)
		}
	})
}
