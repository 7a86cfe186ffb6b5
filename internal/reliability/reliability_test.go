package reliability

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReversals(t *testing.T) {
	got := reversals([]float64{1, 3, 2, 4, 0, 5})
	want := []float64{1, 3, 2, 4, 0, 5}
	if len(got) != len(want) {
		t.Fatalf("reversals = %v", got)
	}
	// Monotone series reduces to its endpoints.
	got = reversals([]float64{1, 2, 3, 4, 5})
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("monotone reversals = %v", got)
	}
	if reversals(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestRainflowSimpleWave(t *testing.T) {
	// A pure triangle wave 50→70→50→70→50 should count full cycles of
	// amplitude 10 K around mean 60 °C.
	series := []float64{50, 70, 50, 70, 50}
	cycles := Rainflow(series)
	var total, amp float64
	for _, c := range cycles {
		total += c.Count
		amp += c.Count * c.AmplitudeK
		if math.Abs(c.MeanC-60) > 1e-9 {
			t.Fatalf("cycle mean = %v", c.MeanC)
		}
	}
	if math.Abs(total-2) > 1e-9 {
		t.Fatalf("total cycle count = %v, want 2", total)
	}
	if math.Abs(amp/total-10) > 1e-9 {
		t.Fatalf("mean amplitude = %v, want 10", amp/total)
	}
}

func TestRainflowTextbookSequence(t *testing.T) {
	// Classic ASTM E1049 example: peaks [-2, 1, -3, 5, -1, 3, -4, 4, -2]
	// yields full/half cycles with known ranges.
	series := []float64{-2, 1, -3, 5, -1, 3, -4, 4, -2}
	cycles := Rainflow(series)
	// Count-weighted total range must be conserved within the residual
	// accounting: every reversal pair appears exactly once.
	var totalCount float64
	for _, c := range cycles {
		totalCount += c.Count
	}
	// 8 intervals between 9 reversals → 4 "cycle equivalents".
	if math.Abs(totalCount-4) > 1e-9 {
		t.Fatalf("total count = %v, want 4", totalCount)
	}
	// The largest extracted amplitude must correspond to the -4..5 swing
	// (amplitude 4.5).
	largest := 0.0
	for _, c := range cycles {
		largest = math.Max(largest, c.AmplitudeK)
	}
	if math.Abs(largest-4.5) > 1e-9 {
		t.Fatalf("largest amplitude = %v, want 4.5", largest)
	}
}

func TestRainflowPeriodic(t *testing.T) {
	// One period of a sawtooth: 55→65→55 sampled mid-phase so the series
	// neither starts nor ends at the max.
	series := []float64{60, 65, 60, 55, 58}
	cycles := RainflowPeriodic(series)
	var total float64
	var maxAmp float64
	for _, c := range cycles {
		total += c.Count
		if c.AmplitudeK > maxAmp {
			maxAmp = c.AmplitudeK
		}
	}
	// The deep 55↔65 cycle must be recovered at full amplitude 5
	// regardless of the sampling phase.
	if math.Abs(maxAmp-5) > 1e-9 {
		t.Fatalf("periodic max amplitude = %v, want 5", maxAmp)
	}
	if total < 1 {
		t.Fatalf("total cycle equivalents = %v", total)
	}
	if RainflowPeriodic([]float64{60}) != nil {
		t.Fatal("single sample should produce no cycles")
	}
}

func TestRainflowFlatSeries(t *testing.T) {
	if got := Rainflow([]float64{60, 60, 60}); len(got) != 0 {
		t.Fatalf("flat series should produce no cycles: %v", got)
	}
}

// Property: count-weighted cycle equivalents equal half the number of
// reversal intervals (rainflow conservation).
func TestRainflowConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(60)
		series := make([]float64, n)
		for i := range series {
			series[i] = 40 + r.Float64()*40
		}
		peaks := reversals(series)
		cycles := Rainflow(series)
		var total float64
		for _, c := range cycles {
			total += c.Count
		}
		return math.Abs(total-float64(len(peaks)-1)/2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCoffinMansonDamage(t *testing.T) {
	cm := CoffinManson{Q: 2, MinAmplitudeK: 0}
	cycles := []Cycle{{AmplitudeK: 5, Count: 1}, {AmplitudeK: 10, Count: 0.5}}
	// (2·5)² + 0.5·(2·10)² = 100 + 200 = 300.
	if d := cm.Damage(cycles); math.Abs(d-300) > 1e-9 {
		t.Fatalf("Damage = %v, want 300", d)
	}
	// Amplitude floor screens micro-cycles.
	cm.MinAmplitudeK = 6
	if d := cm.Damage(cycles); math.Abs(d-200) > 1e-9 {
		t.Fatalf("floored Damage = %v, want 200", d)
	}
}

// The key defense of m-oscillation: with Q > 1, splitting one big cycle
// into m smaller ones REDUCES total damage.
func TestCoffinMansonFavorsManySmallCycles(t *testing.T) {
	cm := DefaultCoffinManson()
	big := []Cycle{{AmplitudeK: 10, Count: 1}}
	many := []Cycle{{AmplitudeK: 1, Count: 10}}
	if cm.Damage(many) >= cm.Damage(big) {
		t.Fatalf("many small cycles should damage less: %v vs %v",
			cm.Damage(many), cm.Damage(big))
	}
}

func TestArrhenius(t *testing.T) {
	ar := DefaultArrhenius()
	if f := ar.AccelerationFactor(55, 55); math.Abs(f-1) > 1e-12 {
		t.Fatalf("self acceleration = %v", f)
	}
	// The paper's rule of thumb: ~10-15 K hotter halves the lifetime —
	// the acceleration factor over +12 K near 60 °C should be ≈ 2.
	f := ar.AccelerationFactor(72, 60)
	if f < 1.7 || f < 1 || f > 3.2 {
		t.Fatalf("acceleration over +12 K = %v, expected ≈2", f)
	}
	if ar.MeanAcceleration(nil, 60) != 0 {
		t.Fatal("empty trace should yield 0")
	}
	m := ar.MeanAcceleration([]float64{60, 60, 60}, 60)
	if math.Abs(m-1) > 1e-12 {
		t.Fatalf("mean acceleration at reference = %v", m)
	}
}
