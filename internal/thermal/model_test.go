package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
	"thermosc/internal/power"
)

func testModel(t testing.TB, rows, cols int) *Model {
	t.Helper()
	m, err := Default(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func uniformModes(n int, v float64) []power.Mode {
	modes := make([]power.Mode, n)
	for i := range modes {
		modes[i] = power.NewMode(v)
	}
	return modes
}

func TestModelShape(t *testing.T) {
	m := testModel(t, 3, 2)
	if m.NumCores() != 6 {
		t.Fatalf("NumCores = %d", m.NumCores())
	}
	if m.NumNodes() != 13 {
		t.Fatalf("NumNodes = %d, want 2·6+1", m.NumNodes())
	}
	if m.Floorplan().NumCores() != 6 {
		t.Fatal("floorplan mismatch")
	}
}

func TestConductanceMatrixIsSymmetricLaplacianLike(t *testing.T) {
	m := testModel(t, 3, 3)
	g := m.Conductance()
	n := m.NumNodes()
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
				t.Fatalf("G not symmetric at (%d,%d)", i, j)
			}
			if i != j && g.At(i, j) > 0 {
				t.Fatalf("positive off-diagonal at (%d,%d)", i, j)
			}
			rowSum += g.At(i, j)
		}
		// Row sums are the conductances to ambient: ≥ 0, and > 0 for at
		// least the sink node.
		if rowSum < -1e-12 {
			t.Fatalf("row %d sums to %v < 0", i, rowSum)
		}
	}
}

func TestStabilityAndPositivity(t *testing.T) {
	for _, cfg := range [][2]int{{2, 1}, {3, 1}, {3, 2}, {3, 3}} {
		m := testModel(t, cfg[0], cfg[1])
		if !m.Eigen().Stable() {
			t.Fatalf("%v: model unstable", cfg)
		}
		if tc := m.DominantTimeConstant(); tc <= 0 || tc > 600 {
			t.Fatalf("%v: implausible dominant time constant %v s", cfg, tc)
		}
	}
}

func TestSteadyStateFixedPoint(t *testing.T) {
	m := testModel(t, 3, 1)
	modes := uniformModes(3, 1.0)
	tInf := m.SteadyState(modes)
	// Stepping from T∞ stays at T∞ for any dt.
	for _, dt := range []float64{1e-3, 0.1, 10} {
		next := m.Step(dt, tInf, modes)
		if !mat.VecEqual(next, tInf, 1e-9) {
			t.Fatalf("steady state not a fixed point at dt=%v", dt)
		}
	}
}

func TestStepSemigroup(t *testing.T) {
	m := testModel(t, 2, 1)
	modes := []power.Mode{power.NewMode(1.3), power.NewMode(0.6)}
	t0 := m.ZeroState()
	oneBig := m.Step(2.0, t0, modes)
	small := t0
	for i := 0; i < 20; i++ {
		small = m.Step(0.1, small, modes)
	}
	if !mat.VecEqual(oneBig, small, 1e-8) {
		t.Fatalf("semigroup violated: %v vs %v", oneBig, small)
	}
}

func TestStepConvergesToSteadyState(t *testing.T) {
	m := testModel(t, 3, 1)
	modes := uniformModes(3, 1.2)
	tInf := m.SteadyState(modes)
	state := m.ZeroState()
	horizon := 12 * m.DominantTimeConstant()
	state = m.Step(horizon, state, modes)
	if !mat.VecEqual(state, tInf, 1e-3*math.Max(1, mat.VecNormInf(tInf))) {
		t.Fatalf("transient did not converge: %v vs %v", state, tInf)
	}
}

// Property 1 of the paper: with all cores shut down, temperatures decay
// monotonically (element-wise) from any non-negative starting state.
func TestProperty1MonotoneCooling(t *testing.T) {
	m := testModel(t, 3, 2)
	off := make([]power.Mode, 6)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		state := make([]float64, m.NumNodes())
		for i := range state {
			state[i] = r.Float64() * 40
		}
		// Start from a physically reachable state: heat under power first
		// so the state respects the network's internal structure.
		state = m.Step(5, state, uniformModes(6, 1.0))
		prev := state
		for k := 0; k < 12; k++ {
			next := m.Step(0.5, prev, off)
			for i := range next {
				if next[i] > prev[i]+1e-9 {
					return false
				}
				if next[i] < -1e-9 {
					return false
				}
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Superposition: T∞ is linear in the static power vector. The proof of
// Theorem 2 leans on exactly this LTI property.
func TestSteadyStateSuperposition(t *testing.T) {
	m := testModel(t, 3, 1)
	a := []power.Mode{power.NewMode(1.3), power.ModeOff, power.ModeOff}
	b := []power.Mode{power.ModeOff, power.NewMode(0.8), power.NewMode(0.6)}
	sum := mat.VecAdd(m.SteadyState(a), m.SteadyState(b))
	// Combined mode vector injects the same total Ψ.
	comb := []power.Mode{power.NewMode(1.3), power.NewMode(0.8), power.NewMode(0.6)}
	if !mat.VecEqual(sum, m.SteadyState(comb), 1e-9) {
		t.Fatal("steady-state superposition violated")
	}
}

// More power never cools any node (inverse positivity).
func TestMonotonicityInPower(t *testing.T) {
	m := testModel(t, 3, 3)
	lo := m.SteadyState(uniformModes(9, 0.6))
	hi := m.SteadyState(uniformModes(9, 1.3))
	if !mat.VecAllGE(hi, lo) {
		t.Fatal("raising all voltages lowered some node temperature")
	}
}

// Calibration: the repository defaults must reproduce the paper's
// motivation-example shape on the 3×1 platform with Tmax = 65 °C
// (30 K rise above the 35 °C ambient).
func TestCalibration3x1MotivationShape(t *testing.T) {
	m := testModel(t, 3, 1)
	const maxRise = 30 // 65 °C − 35 °C

	// (a) All cores at the top voltage must be thermally infeasible.
	hot := m.SteadyStateCores(uniformModes(3, 1.3))
	if maxT, _ := mat.VecMax(hot); maxT <= maxRise {
		t.Fatalf("all-1.3V steady rise %.2f K should exceed %v K", maxT, maxRise)
	}

	// (b) All cores at the bottom voltage must be deeply feasible.
	cold := m.SteadyStateCores(uniformModes(3, 0.6))
	if maxT, _ := mat.VecMax(cold); maxT >= 0.7*maxRise {
		t.Fatalf("all-0.6V steady rise %.2f K should be well below %v K", maxT, maxRise)
	}

	// (c) Under a uniform voltage the middle core is the hottest
	// (heat interference — the reason the paper's ideal middle-core
	// voltage 1.1748 V is below the end cores' 1.2085 V).
	uni := m.SteadyStateCores(uniformModes(3, 1.2))
	if !(uni[1] > uni[0] && uni[1] > uni[2]) {
		t.Fatalf("middle core not hottest: %v", uni)
	}
	if math.Abs(uni[0]-uni[2]) > 1e-9 {
		t.Fatalf("end cores should be symmetric: %v", uni)
	}

	// (d) A uniform voltage in the 1.1–1.25 V band should straddle the
	// 30 K budget, so the ideal per-core voltages land in that band.
	low := m.SteadyStateCores(uniformModes(3, 1.1))
	high := m.SteadyStateCores(uniformModes(3, 1.25))
	lowMax, _ := mat.VecMax(low)
	highMax, _ := mat.VecMax(high)
	if !(lowMax < maxRise && highMax > maxRise) {
		t.Fatalf("ideal band miscalibrated: rise(1.1V)=%.2f rise(1.25V)=%.2f budget=%v",
			lowMax, highMax, maxRise)
	}
}

func TestAbsoluteRiseRoundTrip(t *testing.T) {
	m := testModel(t, 2, 1)
	if m.Absolute(30) != 65 {
		t.Fatalf("Absolute(30) = %v", m.Absolute(30))
	}
	if m.Rise(65) != 30 {
		t.Fatalf("Rise(65) = %v", m.Rise(65))
	}
}

func TestAMatrixConsistency(t *testing.T) {
	m := testModel(t, 2, 1)
	// The eigendecomposition must reproduce A = C⁻¹(βE−G).
	e := m.Eigen()
	if !e.W.MulDiagRight(e.Lambda).Mul(e.Winv).Equal(m.A(), 1e-8) {
		t.Fatal("W·diag(Lambda)·W⁻¹ != A()")
	}
}

func TestUnitResponses(t *testing.T) {
	m := testModel(t, 3, 1)
	ur := m.UnitResponses()
	if r, c := ur.Dims(); r != m.NumNodes() || c != 3 {
		t.Fatalf("UnitResponses dims %d×%d", r, c)
	}
	// Composing unit responses with the Ψ vector must equal SteadyState.
	modes := []power.Mode{power.NewMode(0.6), power.NewMode(1.0), power.NewMode(1.3)}
	psiCores := make([]float64, 3)
	for i, md := range modes {
		psiCores[i] = m.Power().Static(md)
	}
	if !mat.VecEqual(ur.MulVec(psiCores), m.SteadyState(modes), 1e-9) {
		t.Fatal("UnitResponses inconsistent with SteadyState")
	}
}

func TestBVec(t *testing.T) {
	m := testModel(t, 2, 1)
	modes := uniformModes(2, 1.0)
	b := m.BVec(modes)
	psi := m.Psi(modes)
	c := m.Capacitances()
	for i := range b {
		if math.Abs(b[i]*c[i]-psi[i]) > 1e-12 {
			t.Fatalf("BVec[%d] inconsistent", i)
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	m := testModel(t, 2, 1)
	mustPanic(t, func() { m.Psi(uniformModes(3, 1)) })
	mustPanic(t, func() { m.Step(1, make([]float64, 2), uniformModes(2, 1)) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestCoreLevelModel(t *testing.T) {
	fp := floorplan.MustGrid(3, 1, 4e-3)
	m, err := NewCoreLevelModel(fp, DefaultCoreLevel(), power.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 3 || m.NumCores() != 3 {
		t.Fatalf("core-level dims: %d nodes, %d cores", m.NumNodes(), m.NumCores())
	}
	if !m.Eigen().Stable() {
		t.Fatal("core-level model unstable")
	}
	uni := m.SteadyStateCores(uniformModes(3, 1.2))
	if !(uni[1] > uni[0]) {
		t.Fatalf("middle core should be hottest: %v", uni)
	}
	// Invalid parameters are rejected.
	if _, err := NewCoreLevelModel(fp, CoreLevelParams{}, power.DefaultModel()); err == nil {
		t.Fatal("expected error for zero parameters")
	}
}

func TestDefaultErrorPath(t *testing.T) {
	if _, err := Default(0, 1); err == nil {
		t.Fatal("expected error for invalid grid")
	}
}

func TestAccessorsAndStepToward(t *testing.T) {
	fp := floorplan.MustGrid(2, 1, 4e-3)
	md, err := NewModel(fp, HotSpot65nm(), power.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if md.Package().AmbientC != 35 {
		t.Fatalf("Package().AmbientC = %v", md.Package().AmbientC)
	}
	modes := uniformModes(2, 1.0)
	tinf := md.SteadyState(modes)
	// StepToward with the precomputed target equals Step.
	a := md.Step(0.1, md.ZeroState(), modes)
	b := md.StepToward(0.1, md.ZeroState(), tinf)
	if !mat.VecEqual(a, b, 1e-12) {
		t.Fatal("StepToward diverges from Step")
	}
	cores := md.CoreTemps(a)
	if len(cores) != 2 {
		t.Fatalf("CoreTemps length %d", len(cores))
	}
	cores[0] = 999
	if md.CoreTemps(a)[0] == 999 {
		t.Fatal("CoreTemps must return a copy")
	}
}
