package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModeBasics(t *testing.T) {
	m := NewMode(1.2)
	if m.Voltage != 1.2 || m.Freq != 1.2 || m.Speed() != 1.2 {
		t.Fatalf("mode = %+v", m)
	}
	if m.IsOff() {
		t.Fatal("active mode reported off")
	}
	if !ModeOff.IsOff() {
		t.Fatal("ModeOff not off")
	}
	if m.String() != "1.20V" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestStaticPowerMonotoneInVoltage(t *testing.T) {
	p := DefaultModel()
	prev := 0.0
	for v := 0.6; v <= 1.3; v += 0.05 {
		cur := p.Static(NewMode(v))
		if cur <= prev {
			t.Fatalf("Static not increasing at v=%v", v)
		}
		prev = cur
	}
	if p.Static(ModeOff) != 0 {
		t.Fatal("off core must consume no power")
	}
}

func TestVoltageForStaticRoundTrip(t *testing.T) {
	p := DefaultModel()
	f := func(raw float64) bool {
		v := 0.3 + math.Mod(math.Abs(raw), 1.2) // 0.3..1.5 V
		want := p.Static(NewMode(v))
		got, err := p.VoltageForStatic(want)
		if err != nil {
			return false
		}
		return math.Abs(got-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVoltageForStaticUnreachable(t *testing.T) {
	p := DefaultModel()
	if _, err := p.VoltageForStatic(0.01); err == nil {
		t.Fatal("expected error below leakage floor")
	}
}

func TestLevelSetConstruction(t *testing.T) {
	ls, err := NewLevelSet(1.3, 0.6, 0.6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	got := ls.Voltages()
	want := []float64{0.6, 0.8, 1.3}
	if len(got) != len(want) {
		t.Fatalf("Voltages = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Voltages = %v", got)
		}
	}
	if ls.Min() != 0.6 || ls.Max() != 1.3 || ls.Len() != 3 {
		t.Fatal("min/max/len wrong")
	}
	if !ls.Contains(0.8, 0) || ls.Contains(0.7, 1e-3) {
		t.Fatal("Contains wrong")
	}
	if ls.Mode(1).Voltage != 0.8 {
		t.Fatal("Mode wrong")
	}
}

func TestLevelSetErrors(t *testing.T) {
	if _, err := NewLevelSet(); err == nil {
		t.Fatal("empty set must error")
	}
	if _, err := NewLevelSet(0.6, -0.1); err == nil {
		t.Fatal("negative voltage must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLevelSet must panic")
		}
	}()
	MustLevelSet()
}

func TestPaperLevels(t *testing.T) {
	for n := 2; n <= 5; n++ {
		ls, err := PaperLevels(n)
		if err != nil {
			t.Fatal(err)
		}
		if ls.Len() != n {
			t.Fatalf("PaperLevels(%d).Len = %d", n, ls.Len())
		}
		if ls.Min() != 0.6 || ls.Max() != 1.3 {
			t.Fatalf("PaperLevels(%d) range wrong", n)
		}
	}
	if _, err := PaperLevels(6); err == nil {
		t.Fatal("expected error for undefined level count")
	}
}

func TestFullRange(t *testing.T) {
	ls := FullRange()
	if ls.Len() != 15 {
		t.Fatalf("FullRange has %d levels, want 15", ls.Len())
	}
	if ls.Min() != 0.6 || ls.Max() != 1.3 {
		t.Fatalf("FullRange bounds [%v,%v]", ls.Min(), ls.Max())
	}
}

func TestNeighbors(t *testing.T) {
	ls := MustLevelSet(0.6, 0.8, 1.0, 1.3)
	cases := []struct {
		v, lo, hi float64
	}{
		{0.5, 0.6, 0.6},
		{0.6, 0.6, 0.6},
		{0.7, 0.6, 0.8},
		{0.8, 0.8, 0.8},
		{1.05, 1.0, 1.3},
		{1.3, 1.3, 1.3},
		{1.5, 1.3, 1.3},
	}
	for _, c := range cases {
		lo, hi := ls.Neighbors(c.v)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("Neighbors(%v) = (%v,%v), want (%v,%v)", c.v, lo, hi, c.lo, c.hi)
		}
	}
	if ls.LowerNeighbor(1.05) != 1.0 {
		t.Fatal("LowerNeighbor wrong")
	}
}

// Property: Neighbors always bracket the query and are actual levels.
func TestNeighborsBracketProperty(t *testing.T) {
	ls := FullRange()
	f := func(raw float64) bool {
		v := 0.4 + math.Mod(math.Abs(raw), 1.2)
		lo, hi := ls.Neighbors(v)
		if !ls.Contains(lo, 1e-12) || !ls.Contains(hi, 1e-12) {
			return false
		}
		if v <= ls.Min() {
			return lo == ls.Min() && hi == ls.Min()
		}
		if v >= ls.Max() {
			return lo == ls.Max() && hi == ls.Max()
		}
		return lo <= v+1e-9 && hi >= v-1e-9 && lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTransitionOverheadDelta(t *testing.T) {
	o := DefaultOverhead()
	d := o.Delta(1.3, 0.6)
	want := (1.3 + 0.6) * 5e-6 / (1.3 - 0.6)
	if math.Abs(d-want) > 1e-15 {
		t.Fatalf("Delta = %v, want %v", d, want)
	}
	if !math.IsInf(o.Delta(0.6, 0.6), 1) {
		t.Fatal("Delta must be +Inf for equal voltages")
	}
}

func TestMaxM(t *testing.T) {
	o := DefaultOverhead()
	// t_L = 10 ms, δ ≈ 13.57 µs ⇒ M = ⌊10e-3/18.57e-6⌋ = 538.
	m := o.MaxM(10e-3, 1.3, 0.6)
	d := o.Delta(1.3, 0.6)
	want := int(math.Floor(10e-3 / (d + o.Tau)))
	if m != want {
		t.Fatalf("MaxM = %d, want %d", m, want)
	}
	if o.MaxM(10e-3, 0.6, 0.6) != math.MaxInt32 {
		t.Fatal("constant-mode core should be unbounded")
	}
	if o.MaxM(1e-9, 1.3, 0.6) != 1 {
		t.Fatal("tiny low interval must clamp M to 1")
	}
	zero := TransitionOverhead{}
	if zero.MaxM(1e-3, 1.3, 0.6) != math.MaxInt32 {
		t.Fatal("zero overhead should be unbounded")
	}
}

func TestNeighborsRandomizedAgainstLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ls := MustLevelSet(0.6, 0.7, 0.9, 1.1, 1.25, 1.3)
	for k := 0; k < 500; k++ {
		v := 0.4 + r.Float64()*1.1
		lo, hi := ls.Neighbors(v)
		// Linear reference.
		wlo, whi := ls.Min(), ls.Max()
		if v <= ls.Min() {
			whi = ls.Min()
		} else if v >= ls.Max() {
			wlo = ls.Max()
		} else {
			for _, x := range ls.Voltages() {
				if x <= v {
					wlo = x
				}
			}
			for i := ls.Len() - 1; i >= 0; i-- {
				if x := ls.Voltages()[i]; x >= v {
					whi = x
				}
			}
		}
		if lo != wlo || hi != whi {
			t.Fatalf("Neighbors(%v) = (%v,%v), want (%v,%v)", v, lo, hi, wlo, whi)
		}
	}
}

// Contains reports whether v is one of the levels (within tol).
func (l *LevelSet) Contains(v, tol float64) bool {
	for _, lv := range l.volts {
		if math.Abs(lv-v) <= tol {
			return true
		}
	}
	return false
}
