package solver

import (
	"math"
	"strings"
	"testing"

	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// The adjustment budget must stay positive and bounded for every
// representable quantum — the old int-space arithmetic overflowed to a
// negative budget on subnormal dr, silently skipping the TPT loops.
func TestAdjustmentBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		dr      float64
		want    int
		wantErr bool
	}{
		{name: "nominal", n: 4, dr: 1.0 / 200, want: 4*200 + 10},
		{name: "rounds up", n: 1, dr: 0.3, want: 4 + 10},
		{name: "subnormal clamps", n: 16, dr: 5e-324, want: maxAdjustIter},
		{name: "tiny clamps", n: 2, dr: 1e-12, want: maxAdjustIter},
		{name: "zero", n: 4, dr: 0, wantErr: true},
		{name: "negative", n: 4, dr: -0.1, wantErr: true},
		{name: "NaN", n: 4, dr: math.NaN(), wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := adjustmentBudget(tc.n, tc.dr)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("accepted dr=%v with budget %d", tc.dr, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("budget(%d, %v) = %d, want %d", tc.n, tc.dr, got, tc.want)
			}
			if got <= 0 || got > maxAdjustIter {
				t.Fatalf("budget %d outside (0, %d]", got, maxAdjustIter)
			}
		})
	}
}

// Degenerate quanta must be rejected at problem validation, before any
// solver loop can inherit them.
func TestProblemRejectsDegenerateQuanta(t *testing.T) {
	md, err := thermal.Default(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := power.PaperLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	base := Problem{Model: md, Levels: ls, TmaxC: 60, Overhead: power.DefaultOverhead()}

	for _, tc := range []struct {
		name string
		mut  func(*Problem)
		frag string
	}{
		{"subnormal BasePeriod", func(p *Problem) { p.BasePeriod = 5e-324 }, "base period"},
		{"NaN BasePeriod", func(p *Problem) { p.BasePeriod = math.NaN() }, "base period"},
		{"negative BasePeriod", func(p *Problem) { p.BasePeriod = -1 }, "base period"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mut(&p)
			if _, err := p.withDefaults(); err == nil {
				t.Fatal("degenerate problem accepted")
			} else if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not name %q", err, tc.frag)
			}
			// The full solver must reject it too, not hang.
			if _, err := AO(p); err == nil {
				t.Fatal("AO accepted a degenerate problem")
			}
		})
	}
}
