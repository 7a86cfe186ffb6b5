package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/schedule"
	"thermosc/internal/thermal"
)

func model(t testing.TB, rows, cols int) *thermal.Model {
	t.Helper()
	md, err := thermal.Default(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

func seg(l, v float64) schedule.Segment {
	return schedule.Segment{Length: l, Mode: power.NewMode(v)}
}

// twoCoreSched: core0 low-then-high, core1 high-then-low, period 2 s.
func twoCoreSched() *schedule.Schedule {
	return schedule.Must([][]schedule.Segment{
		{seg(1, 0.6), seg(1, 1.3)},
		{seg(1, 1.3), seg(1, 0.6)},
	})
}

func randomStepUp(r *rand.Rand, n int, period float64, maxSegs int) *schedule.Schedule {
	palette := []float64{0.6, 0.8, 1.0, 1.2, 1.3}
	cores := make([][]schedule.Segment, n)
	for i := range cores {
		k := 1 + r.Intn(maxSegs)
		// Choose k ascending voltages.
		idx := r.Perm(len(palette))[:k]
		for a := 0; a < len(idx); a++ {
			for b := a + 1; b < len(idx); b++ {
				if idx[b] < idx[a] {
					idx[a], idx[b] = idx[b], idx[a]
				}
			}
		}
		rem := period
		for a, vi := range idx {
			var l float64
			if a == len(idx)-1 {
				l = rem
			} else {
				l = rem * (0.2 + 0.6*r.Float64()) / float64(len(idx)-a)
				rem -= l
			}
			cores[i] = append(cores[i], seg(l, palette[vi]))
		}
	}
	return schedule.Must(cores)
}

func TestPeriodEndMatchesManualStep(t *testing.T) {
	md := model(t, 2, 1)
	s := twoCoreSched()
	t0 := md.ZeroState()
	got := PeriodEnd(md, s, t0)
	ivs := s.Intervals()
	want := t0
	for _, iv := range ivs {
		want = md.Step(iv.Length, want, iv.Modes)
	}
	if !mat.VecEqual(got, want, 1e-12) {
		t.Fatal("PeriodEnd mismatch")
	}
}

func TestStableIsFixedPointOfPeriodMap(t *testing.T) {
	md := model(t, 2, 1)
	s := twoCoreSched()
	st, err := NewStable(md, s)
	if err != nil {
		t.Fatal(err)
	}
	start := st.Start()
	end := PeriodEnd(md, s, start)
	if !mat.VecEqual(start, end, 1e-8) {
		t.Fatalf("stable start is not a fixed point: %v vs %v", start, end)
	}
}

func TestStableMatchesLongTransient(t *testing.T) {
	md := model(t, 3, 1)
	s := schedule.Must([][]schedule.Segment{
		{seg(0.5, 0.6), seg(0.5, 1.3)},
		{seg(1, 0.8)},
		{seg(0.3, 0.6), seg(0.7, 1.2)},
	})
	st, err := NewStable(md, s)
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the period until convergence.
	state := md.ZeroState()
	periods := int(20*md.DominantTimeConstant()/s.Period()) + 5
	for p := 0; p < periods; p++ {
		state = PeriodEnd(md, s, state)
	}
	if !mat.VecEqual(state, st.Start(), 1e-5) {
		t.Fatalf("transient does not converge to stable start:\n%v\n%v", state, st.Start())
	}
}

func TestStableAtBoundaries(t *testing.T) {
	md := model(t, 2, 1)
	s := twoCoreSched()
	st, err := NewStable(md, s)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(st.At(0), st.Start(), 1e-12) {
		t.Fatal("At(0) != Start")
	}
	if !mat.VecEqual(st.At(s.Period()), st.End(st.NumIntervals()-1), 1e-9) {
		t.Fatal("At(period) != last interval end")
	}
	// Interior continuity: At just before and after an interval boundary.
	b := 1.0 // boundary between the two intervals
	lo := st.At(b - 1e-9)
	hi := st.At(b + 1e-9)
	if !mat.VecEqual(lo, hi, 1e-5) {
		t.Fatal("temperature discontinuous at interval boundary")
	}
}

func TestRK4MatchesClosedForm(t *testing.T) {
	md := model(t, 2, 1)
	s := twoCoreSched()
	t0 := md.ZeroState()
	// Closed form at end of 3 periods.
	exact := t0
	for p := 0; p < 3; p++ {
		exact = PeriodEnd(md, s, exact)
	}
	tr := RK4(md, s, t0, 3, 1e-4)
	num := tr.Temps[len(tr.Temps)-1]
	if !mat.VecEqual(exact, num, 1e-4*math.Max(1, mat.VecNormInf(exact))) {
		t.Fatalf("RK4 deviates from closed form:\n%v\n%v", exact, num)
	}
}

func TestTransientTraceShape(t *testing.T) {
	md := model(t, 2, 1)
	s := twoCoreSched()
	tr := Transient(md, s, md.ZeroState(), 2, 8)
	if len(tr.Times) != 1+2*8 {
		t.Fatalf("trace has %d samples", len(tr.Times))
	}
	if tr.Times[0] != 0 || math.Abs(tr.Times[len(tr.Times)-1]-2*s.Period()) > 1e-9 {
		t.Fatalf("trace time range [%v,%v]", tr.Times[0], tr.Times[len(tr.Times)-1])
	}
	// Times strictly increasing.
	for k := 1; k < len(tr.Times); k++ {
		if tr.Times[k] <= tr.Times[k-1] {
			t.Fatalf("times not increasing at %d", k)
		}
	}
}

func TestTransientMatchesPeriodEnd(t *testing.T) {
	md := model(t, 3, 1)
	s := schedule.Must([][]schedule.Segment{
		{seg(0.7, 0.6), seg(1.3, 1.3)},
		{seg(2, 0.8)},
		{seg(1, 1.0), seg(1, 0.6)},
	})
	tr := Transient(md, s, md.ZeroState(), 1, 16)
	want := PeriodEnd(md, s, md.ZeroState())
	got := tr.Temps[len(tr.Temps)-1]
	if !mat.VecEqual(got, want, 1e-8) {
		t.Fatalf("transient end %v != period end %v", got, want)
	}
}

func TestTraceHelpers(t *testing.T) {
	md := model(t, 2, 1)
	s := twoCoreSched()
	tr := Transient(md, s, md.ZeroState(), 1, 4)
	series := tr.CoreSeries(md, 0)
	if len(series) != len(tr.Times) {
		t.Fatal("CoreSeries length mismatch")
	}
	if series[0] != md.Absolute(0) {
		t.Fatalf("initial absolute temp = %v", series[0])
	}
}

// Theorem 1 on the layered model: for step-up schedules the stable-status
// peak occurs at the end of the period, within a small multi-time-scale
// tolerance. The paper proves the theorem for models with one RC node per
// core; in the layered (die+spreader+sink) model a fast die node can
// overshoot its period-end value by a sub-milli-Kelvin margin just after
// the wrap, while the slow spreader layer still lags (documented in
// EXPERIMENTS.md). TestTheorem1ExactOnCoreLevelModel below asserts the
// exact statement on the paper's single-node-per-core model class.
func TestTheorem1StepUpPeakAtPeriodEnd(t *testing.T) {
	md := model(t, 3, 2)
	const layeredTol = 2e-3 // K
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomStepUp(r, 6, 0.5+r.Float64()*4, 3)
		st, err := NewStable(md, s)
		if err != nil {
			return false
		}
		endPeak, _ := st.PeakEndOfPeriod()
		densePeak, _, at := st.PeakDense(24)
		if densePeak > endPeak+layeredTol {
			return false
		}
		return at > 0.95*s.Period() || math.Abs(densePeak-endPeak) < layeredTol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// strictStepUp generates schedules where every core's voltage STRICTLY
// increases over the period (no constant-mode cores) — the hypothesis
// under which Theorem 1 is exact (see the reproduction finding documented
// on Stable.PeakEndOfPeriod).
func strictStepUp(r *rand.Rand, n int, period float64) *schedule.Schedule {
	palette := []float64{0.6, 0.8, 1.0, 1.2, 1.3}
	cores := make([][]schedule.Segment, n)
	for i := range cores {
		k := 2 + r.Intn(2)
		start := r.Intn(len(palette) - k + 1)
		rem := period
		for a := 0; a < k; a++ {
			var l float64
			if a == k-1 {
				l = rem
			} else {
				l = rem * (0.2 + 0.6*r.Float64()) / float64(k-a)
				rem -= l
			}
			cores[i] = append(cores[i], seg(l, palette[start+a]))
		}
	}
	return schedule.Must(cores)
}

// Theorem 1, exact form: when every core strictly steps up, the
// dense-search peak never exceeds the period-end peak beyond round-off —
// on both the layered and the core-level model.
func TestTheorem1ExactForStrictStepUp(t *testing.T) {
	fp := floorplan.MustGrid(3, 2, 4e-3)
	mdCL, err := thermal.NewCoreLevelModel(fp, thermal.DefaultCoreLevel(), power.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	mdLay := model(t, 3, 2)
	for _, md := range []*thermal.Model{mdCL, mdLay} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			s := strictStepUp(r, 6, 0.3+r.Float64()*4)
			st, err := NewStable(md, s)
			if err != nil {
				return false
			}
			endPeak, _ := st.PeakEndOfPeriod()
			densePeak, _, _ := st.PeakDense(32)
			return densePeak <= endPeak+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	}
}

// The documented exception: a constant-mode core alongside stepping
// neighbors CAN exceed the period-end value — the overshoot exists, is
// positive, and stays well under the documented 0.02 K bound.
func TestTheorem1ConstantCoreOvershoot(t *testing.T) {
	fp := floorplan.MustGrid(3, 2, 4e-3)
	md, err := thermal.NewCoreLevelModel(fp, thermal.DefaultCoreLevel(), power.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 constant-hot; others step up late (reproduces the failure
	// family found during calibration).
	s := schedule.Must([][]schedule.Segment{
		{seg(4.2, 1.3)},
		{seg(0.9, 0.8), seg(3.3, 1.2)},
		{seg(4.2, 1.3)},
		{seg(1.8, 0.8), seg(2.4, 1.2)},
		{seg(1.6, 0.6), seg(2.6, 1.2)},
		{seg(1.1, 0.6), seg(3.1, 1.2)},
	})
	st, err := NewStable(md, s)
	if err != nil {
		t.Fatal(err)
	}
	endPeak, _ := st.PeakEndOfPeriod()
	densePeak, _, at := st.PeakDense(64)
	over := densePeak - endPeak
	if over <= 0 {
		t.Skip("this calibration does not exhibit the overshoot for the canned schedule")
	}
	if over > 0.02 {
		t.Fatalf("overshoot %.4f K exceeds the documented 0.02 K bound", over)
	}
	if at > 0.5*s.Period() {
		t.Fatalf("overshoot expected early in the period, found at %.3f/%.3f s", at, s.Period())
	}
}

// Theorem 2: the step-up rearrangement bounds the peak of the original —
// within the small cross-coupling margin documented in EXPERIMENTS.md.
// (The paper's omitted proof treats per-core contributions as if moving a
// high interval later always raises every end temperature; the cross-core
// kernel e^{As}[i][j] is non-monotone in the lag s, so neighbors can be
// heated MORE by an intermediate placement. Measured violations stay
// below ~0.15 K on ~15-25 K rises across both model classes.)
func TestTheorem2StepUpBound(t *testing.T) {
	md := model(t, 3, 1)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random (not necessarily step-up) schedule.
		palette := []float64{0.6, 0.8, 1.0, 1.3}
		period := 1 + r.Float64()*5
		cores := make([][]schedule.Segment, 3)
		for i := range cores {
			k := 1 + r.Intn(3)
			rem := period
			for a := 0; a < k; a++ {
				var l float64
				if a == k-1 {
					l = rem
				} else {
					l = rem * r.Float64()
					rem -= l
				}
				cores[i] = append(cores[i], seg(l, palette[r.Intn(len(palette))]))
			}
		}
		s := schedule.Must(cores)
		up := s.StepUp()
		stS, err := NewStable(md, s)
		if err != nil {
			return false
		}
		stU, err := NewStable(md, up)
		if err != nil {
			return false
		}
		peakS, _, _ := stS.PeakDense(32)
		peakU, _, _ := stU.PeakDense(32)
		return peakS <= peakU+0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Theorem 2 on the single-node-per-core model: the step-up bound holds to
// within the documented cross-coupling margin when comparing the TRUE
// (densely searched) peaks, and the margin is small relative to the rise.
func TestTheorem2BoundedOnCoreLevelModel(t *testing.T) {
	fp := floorplan.MustGrid(3, 1, 4e-3)
	md, err := thermal.NewCoreLevelModel(fp, thermal.DefaultCoreLevel(), power.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	palette := []float64{0.6, 0.8, 1.0, 1.3}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		period := 1 + r.Float64()*5
		cores := make([][]schedule.Segment, 3)
		for i := range cores {
			k := 1 + r.Intn(3)
			rem := period
			for a := 0; a < k; a++ {
				var l float64
				if a == k-1 {
					l = rem
				} else {
					l = rem * r.Float64()
					rem -= l
				}
				cores[i] = append(cores[i], seg(l, palette[r.Intn(len(palette))]))
			}
		}
		s := schedule.Must(cores)
		stS, err := NewStable(md, s)
		if err != nil {
			return false
		}
		stU, err := NewStable(md, s.StepUp())
		if err != nil {
			return false
		}
		peakS, _, _ := stS.PeakDense(32)
		peakU, _, _ := stU.PeakDense(32)
		return peakS <= peakU+0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Theorem 5: oscillating all cores monotonically lowers the peak.
func TestTheorem5MOscillatingMonotone(t *testing.T) {
	md := model(t, 3, 1)
	r := rand.New(rand.NewSource(17))
	s := randomStepUp(r, 3, 2.0, 3)
	prev := math.Inf(1)
	for _, m := range []int{1, 2, 4, 8, 16} {
		cyc := s.Cycle(m)
		st, err := NewStable(md, cyc)
		if err != nil {
			t.Fatal(err)
		}
		peak, _ := st.PeakEndOfPeriod()
		if peak > prev+1e-9 {
			t.Fatalf("peak rose from %v to %v at m=%d", prev, peak, m)
		}
		prev = peak
	}
}

// Fig. 2 behaviour: oscillating only ONE core can RAISE the peak.
func TestFig2SingleCoreOscillationCanRaisePeak(t *testing.T) {
	md := model(t, 2, 1)
	base := schedule.Must([][]schedule.Segment{
		{seg(0.05, 1.3), seg(0.05, 0.6)},
		{seg(0.05, 0.6), seg(0.05, 1.3)},
	})
	stBase, err := NewStable(md, base)
	if err != nil {
		t.Fatal(err)
	}
	basePeak, _, _ := stBase.PeakDense(64)

	// Double only core 0's oscillation frequency.
	oneCore := schedule.Must([][]schedule.Segment{
		{seg(0.025, 1.3), seg(0.025, 0.6), seg(0.025, 1.3), seg(0.025, 0.6)},
		{seg(0.05, 0.6), seg(0.05, 1.3)},
	})
	stOne, err := NewStable(md, oneCore)
	if err != nil {
		t.Fatal(err)
	}
	onePeak, _, _ := stOne.PeakDense(64)
	if onePeak <= basePeak {
		t.Fatalf("expected single-core oscillation to raise peak: base %.4f, one-core %.4f", basePeak, onePeak)
	}

	// Whereas oscillating BOTH cores lowers it (Theorem 5).
	both := base.Cycle(2)
	stBoth, err := NewStable(md, both)
	if err != nil {
		t.Fatal(err)
	}
	bothPeak, _, _ := stBoth.PeakDense(64)
	if bothPeak > basePeak+1e-9 {
		t.Fatalf("joint oscillation should not raise peak: base %.4f, both %.4f", basePeak, bothPeak)
	}
}

func TestPeriodCacheValidation(t *testing.T) {
	md := model(t, 2, 1)
	if _, err := NewPeriodCache(md, 0); err == nil {
		t.Fatal("zero period must error")
	}
	cache, err := NewPeriodCache(md, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s := twoCoreSched() // period 2
	if _, err := NewStableCached(md, s, cache); err == nil {
		t.Fatal("period mismatch must error")
	}
	other := model(t, 2, 1)
	cache2, err := NewPeriodCache(other, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStableCached(md, s, cache2); err == nil {
		t.Fatal("model mismatch must error")
	}
}

func TestStepUpPeakHelper(t *testing.T) {
	md := model(t, 2, 1)
	s := schedule.Must([][]schedule.Segment{
		{seg(1, 0.6), seg(1, 1.3)},
		{seg(1, 0.6), seg(1, 1.3)},
	})
	cache, err := NewPeriodCache(md, s.Period())
	if err != nil {
		t.Fatal(err)
	}
	peak, core, err := StepUpPeak(md, s, cache)
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 0 || core < 0 || core > 1 {
		t.Fatalf("StepUpPeak = %v, %d", peak, core)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	md := model(t, 2, 1)
	s := twoCoreSched()
	mustPanic(t, func() { Transient(md, s, md.ZeroState(), 0, 4) })
	mustPanic(t, func() { RK4(md, s, md.ZeroState(), 1, 0) })
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
