package sim

import (
	"math"
	"testing"

	"thermosc/internal/power"
	"thermosc/internal/schedule"
)

func TestEnergyMatchesNumericQuadrature(t *testing.T) {
	md := model(t, 2, 1)
	s := schedule.Must([][]schedule.Segment{
		{seg(0.4, 0.6), seg(0.6, 1.3)},
		{seg(1.0, 0.9)},
	})
	st, err := NewStable(md, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Energy()

	// Numeric reference: sample the stable trajectory finely and
	// integrate P(t) = ψ(v) + β·T per core with the trapezoid rule.
	const N = 4000
	pm := md.Power()
	numeric := make([]float64, 2)
	dt := s.Period() / N
	for k := 0; k <= N; k++ {
		tt := float64(k) * dt
		state := st.At(tt)
		w := dt
		if k == 0 || k == N {
			w = dt / 2
		}
		for i := 0; i < 2; i++ {
			m := s.ModeAt(i, math.Min(tt, s.Period()-1e-12))
			if m.IsOff() {
				continue
			}
			numeric[i] += w * (pm.Static(m) + pm.Beta*state[i])
		}
	}
	for i := 0; i < 2; i++ {
		if math.Abs(rep.PerCore[i]-numeric[i]) > 1e-3*numeric[i] {
			t.Fatalf("core %d energy %.6f J vs numeric %.6f J", i, rep.PerCore[i], numeric[i])
		}
	}
	if math.Abs(rep.TotalJ()-(rep.StaticJ+rep.LeakageJ)) > 1e-12 {
		t.Fatal("total split inconsistent")
	}
	wantWork := s.CoreWork(0) + s.CoreWork(1)
	if math.Abs(rep.WorkUnits-wantWork) > 1e-9 {
		t.Fatalf("work units %v, want %v", rep.WorkUnits, wantWork)
	}
	if rep.EnergyPerWork() <= 0 {
		t.Fatal("energy per work must be positive")
	}
}

func TestEnergyIdleIsZero(t *testing.T) {
	md := model(t, 2, 1)
	s := schedule.Constant(1.0, []power.Mode{power.ModeOff, power.ModeOff})
	st, err := NewStable(md, s)
	if err != nil {
		t.Fatal(err)
	}
	rep := st.Energy()
	if rep.TotalJ() != 0 || rep.WorkUnits != 0 || rep.EnergyPerWork() != 0 {
		t.Fatalf("idle platform should consume nothing: %+v", rep)
	}
}

func TestEnergyHigherSpeedCostsMorePerWork(t *testing.T) {
	md := model(t, 2, 1)
	slow := schedule.Constant(1.0, []power.Mode{power.NewMode(0.8), power.NewMode(0.8)})
	fast := schedule.Constant(1.0, []power.Mode{power.NewMode(1.3), power.NewMode(1.3)})
	stSlow, err := NewStable(md, slow)
	if err != nil {
		t.Fatal(err)
	}
	stFast, err := NewStable(md, fast)
	if err != nil {
		t.Fatal(err)
	}
	if stFast.Energy().EnergyPerWork() <= stSlow.Energy().EnergyPerWork() {
		t.Fatal("cubic power law should make the fast mode less efficient per work unit")
	}
}
