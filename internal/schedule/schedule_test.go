package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"thermosc/internal/power"
)

func seg(l, v float64) Segment { return Segment{Length: l, Mode: power.NewMode(v)} }

func randomSchedule(r *rand.Rand, n int, period float64) *Schedule {
	cores := make([][]Segment, n)
	for i := range cores {
		k := 1 + r.Intn(4)
		cuts := make([]float64, k-1)
		for j := range cuts {
			cuts[j] = r.Float64() * period
		}
		// Build k segments with random voltages from a small palette.
		lens := splitPeriod(period, cuts)
		for _, l := range lens {
			v := []float64{0.6, 0.8, 1.0, 1.3}[r.Intn(4)]
			cores[i] = append(cores[i], seg(l, v))
		}
	}
	return Must(cores)
}

func splitPeriod(period float64, cuts []float64) []float64 {
	pts := append([]float64{0}, cuts...)
	pts = append(pts, period)
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	out := make([]float64, 0, len(pts)-1)
	for i := 0; i+1 < len(pts); i++ {
		out = append(out, pts[i+1]-pts[i])
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("no cores must error")
	}
	if _, err := New([][]Segment{{}}); err == nil {
		t.Fatal("empty timeline must error")
	}
	if _, err := New([][]Segment{{seg(-1, 0.6)}}); err == nil {
		t.Fatal("negative length must error")
	}
	if _, err := New([][]Segment{{seg(1, 0.6)}, {seg(2, 0.6)}}); err == nil {
		t.Fatal("mismatched periods must error")
	}
	if _, err := New([][]Segment{{seg(0, 0.6)}}); err == nil {
		t.Fatal("zero total length must error")
	}
	if _, err := New([][]Segment{{seg(math.NaN(), 0.6)}}); err == nil {
		t.Fatal("NaN length must error")
	}
}

func TestNormalizeMergesAndDrops(t *testing.T) {
	s := Must([][]Segment{{seg(1, 0.6), seg(0, 1.3), seg(2, 0.6), seg(1, 1.3)}})
	segs := s.CoreSegments(0)
	if len(segs) != 2 {
		t.Fatalf("normalize failed: %v", segs)
	}
	if segs[0].Length != 3 || segs[1].Length != 1 {
		t.Fatalf("merged lengths wrong: %v", segs)
	}
}

func TestConstant(t *testing.T) {
	s := Constant(2, []power.Mode{power.NewMode(1.0), power.NewMode(0.6)})
	if s.Period() != 2 || s.NumCores() != 2 {
		t.Fatal("Constant shape wrong")
	}
	if got := s.Throughput(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Throughput = %v, want 0.8", got)
	}
	if !s.IsStepUp() {
		t.Fatal("constant schedule is trivially step-up")
	}
}

func TestTwoMode(t *testing.T) {
	specs := []TwoModeSpec{
		{Low: power.NewMode(0.6), High: power.NewMode(1.3), HighRatio: 0.25},
		{Low: power.NewMode(0.6), High: power.NewMode(1.3), HighRatio: 0},
		{Low: power.NewMode(0.6), High: power.NewMode(1.3), HighRatio: 1},
	}
	s, err := TwoMode(4, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CoreSegments(0); len(got) != 2 || got[0].Length != 3 || got[1].Length != 1 {
		t.Fatalf("core0 segments = %v", got)
	}
	if got := s.CoreSegments(1); len(got) != 1 || got[0].Mode.Voltage != 0.6 {
		t.Fatalf("core1 segments = %v", got)
	}
	if got := s.CoreSegments(2); len(got) != 1 || got[0].Mode.Voltage != 1.3 {
		t.Fatalf("core2 segments = %v", got)
	}
	// Throughput: (0.6·3 + 1.3·1 + 0.6·4 + 1.3·4)/(3·4).
	want := (0.6*3 + 1.3*1 + 0.6*4 + 1.3*4) / 12
	if math.Abs(s.Throughput()-want) > 1e-12 {
		t.Fatalf("Throughput = %v, want %v", s.Throughput(), want)
	}
	if _, err := TwoMode(-1, specs); err == nil {
		t.Fatal("negative period must error")
	}
	if _, err := TwoMode(1, []TwoModeSpec{{HighRatio: 2}}); err == nil {
		t.Fatal("ratio > 1 must error")
	}
}

func TestModeAt(t *testing.T) {
	s := Must([][]Segment{{seg(1, 0.6), seg(2, 1.3)}})
	cases := []struct {
		t float64
		v float64
	}{
		{0, 0.6}, {0.99, 0.6}, {1.0, 1.3}, {2.9, 1.3},
		{3.0, 0.6}, // wraps
		{-0.5, 1.3},
	}
	for _, c := range cases {
		if got := s.ModeAt(0, c.t).Voltage; got != c.v {
			t.Fatalf("ModeAt(%v) = %v, want %v", c.t, got, c.v)
		}
	}
}

func TestIntervalsMerge(t *testing.T) {
	s := Must([][]Segment{
		{seg(1, 0.6), seg(2, 1.3)},
		{seg(2, 0.8), seg(1, 1.0)},
	})
	ivs := s.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("Intervals = %d, want 3", len(ivs))
	}
	wantLens := []float64{1, 1, 1}
	wantV0 := []float64{0.6, 1.3, 1.3}
	wantV1 := []float64{0.8, 0.8, 1.0}
	for k, iv := range ivs {
		if math.Abs(iv.Length-wantLens[k]) > 1e-12 {
			t.Fatalf("interval %d length %v", k, iv.Length)
		}
		if iv.Modes[0].Voltage != wantV0[k] || iv.Modes[1].Voltage != wantV1[k] {
			t.Fatalf("interval %d modes %v", k, iv.Modes)
		}
	}
}

func TestIsStepUp(t *testing.T) {
	up := Must([][]Segment{{seg(1, 0.6), seg(1, 1.3)}, {seg(2, 0.8)}})
	if !up.IsStepUp() {
		t.Fatal("should be step-up")
	}
	down := Must([][]Segment{{seg(1, 1.3), seg(1, 0.6)}, {seg(2, 0.8)}})
	if down.IsStepUp() {
		t.Fatal("should not be step-up")
	}
}

func TestStepUpPreservesWork(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSchedule(r, 1+r.Intn(4), 1+r.Float64()*5)
		u := s.StepUp()
		if !u.IsStepUp() {
			return false
		}
		if math.Abs(u.Period()-s.Period()) > 1e-9 {
			return false
		}
		for i := 0; i < s.NumCores(); i++ {
			if math.Abs(u.CoreWork(i)-s.CoreWork(i)) > 1e-9 {
				return false
			}
		}
		return math.Abs(u.Throughput()-s.Throughput()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMOscillatePreservesThroughputAndPeriod(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSchedule(r, 1+r.Intn(3), 0.5+r.Float64()*3)
		m := 1 + r.Intn(8)
		o := s.MOscillate(m)
		if math.Abs(o.Period()-s.Period()) > 1e-9 {
			return false
		}
		if math.Abs(o.Throughput()-s.Throughput()) > 1e-9 {
			return false
		}
		// A step-up schedule oscillated is still per-cycle step-up; check
		// the cycle view.
		c := s.Cycle(m)
		if math.Abs(c.Period()*float64(m)-s.Period()) > 1e-9 {
			return false
		}
		return math.Abs(c.Throughput()-s.Throughput()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMOscillateM1Identity(t *testing.T) {
	s := Must([][]Segment{{seg(1, 0.6), seg(1, 1.3)}})
	if s.MOscillate(1) != s || s.Cycle(1) != s {
		t.Fatal("m=1 should return the same schedule")
	}
	mustPanicSched(t, func() { s.MOscillate(0) })
	mustPanicSched(t, func() { s.Cycle(0) })
}

func TestMOscillateSegmentStructure(t *testing.T) {
	s := Must([][]Segment{{seg(2, 0.6), seg(2, 1.3)}})
	o := s.MOscillate(2)
	segs := o.CoreSegments(0)
	// [0.6×1, 1.3×1, 0.6×1, 1.3×1]
	if len(segs) != 4 {
		t.Fatalf("oscillated segments = %v", segs)
	}
	for _, sg := range segs {
		if math.Abs(sg.Length-1) > 1e-12 {
			t.Fatalf("segment length %v, want 1", sg.Length)
		}
	}
	if segs[0].Mode.Voltage != 0.6 || segs[1].Mode.Voltage != 1.3 {
		t.Fatalf("mode order wrong: %v", segs)
	}
}

func TestShift(t *testing.T) {
	s := Must([][]Segment{{seg(1, 0.6), seg(3, 1.3)}})
	sh := s.Shift(0, 1)
	// shifted(t) = original(t−1): at t=0 original(−1)=original(3)=1.3;
	// at t=1 original(0)=0.6; at t=2 original(1)=1.3.
	if got := sh.ModeAt(0, 0).Voltage; got != 1.3 {
		t.Fatalf("shifted ModeAt(0) = %v", got)
	}
	if got := sh.ModeAt(0, 1.5).Voltage; got != 0.6 {
		t.Fatalf("shifted ModeAt(1.5) = %v", got)
	}
	if got := sh.ModeAt(0, 2.5).Voltage; got != 1.3 {
		t.Fatalf("shifted ModeAt(2.5) = %v", got)
	}
	if math.Abs(sh.Throughput()-s.Throughput()) > 1e-12 {
		t.Fatal("shift changed throughput")
	}
	// Shifting by the full period is the identity.
	id := s.Shift(0, s.Period())
	if math.Abs(id.CoreWork(0)-s.CoreWork(0)) > 1e-12 {
		t.Fatal("full-period shift changed work")
	}
}

func TestShiftPreservesWorkProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSchedule(r, 1+r.Intn(3), 0.5+r.Float64()*4)
		i := r.Intn(s.NumCores())
		off := r.Float64() * s.Period() * 1.5
		sh := s.Shift(i, off)
		for j := 0; j < s.NumCores(); j++ {
			if math.Abs(sh.CoreWork(j)-s.CoreWork(j)) > 1e-9 {
				return false
			}
		}
		// Pointwise: shifted core i at t equals original at t−off.
		for k := 0; k < 10; k++ {
			tq := r.Float64() * s.Period()
			if sh.ModeAt(i, tq) != s.ModeAt(i, tq-off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	s := Must([][]Segment{{seg(1, 0.6), seg(1, 1.3)}})
	sc := s.Scale(2.5)
	if math.Abs(sc.Period()-5) > 1e-12 {
		t.Fatalf("scaled period = %v", sc.Period())
	}
	if math.Abs(sc.Throughput()-s.Throughput()) > 1e-12 {
		t.Fatal("scale changed throughput")
	}
	mustPanicSched(t, func() { s.Scale(0) })
}

func TestString(t *testing.T) {
	s := Must([][]Segment{{seg(1, 0.6), seg(1, 1.25)}, {seg(2, 0.8)}})
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

// The intervals view must tile the period exactly and agree with ModeAt.
func TestIntervalsConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSchedule(r, 1+r.Intn(4), 0.5+r.Float64()*4)
		ivs := s.Intervals()
		var acc float64
		for _, iv := range ivs {
			mid := acc + iv.Length/2
			for i := 0; i < s.NumCores(); i++ {
				if s.ModeAt(i, mid) != iv.Modes[i] {
					return false
				}
			}
			acc += iv.Length
		}
		return math.Abs(acc-s.Period()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func mustPanicSched(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
