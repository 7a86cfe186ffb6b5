package thermosc

import (
	"context"
	"math"
	"testing"
	"time"

	"thermosc/internal/floorplan"
)

// genPlatform builds a root Platform from a generated floorplan spec,
// exercising the same option plumbing users go through (stacked layers,
// heterogeneous scales, automatic package scaling).
func genPlatform(t testing.TB, g floorplan.GenSpec, opts ...Option) *Platform {
	t.Helper()
	if g.Layers > 1 {
		opts = append(opts, WithStackedLayers(g.Layers))
	}
	if g.Scales != nil {
		opts = append(opts, WithCoreScales(g.Scales...))
	}
	p, err := New(g.Rows, g.Cols, opts...)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	if p.NumCores() != g.NumCores() {
		t.Fatalf("%s: platform has %d cores, want %d", g.Name, p.NumCores(), g.NumCores())
	}
	return p
}

// The headline scale contract: a 256-core stacked heterogeneous platform
// must complete an AO solve inside the serve deadline budget (2 s), with
// a feasible, non-degraded plan — the sparse backend plus the scale
// policy make this tractable; the dense path would need minutes.
func TestScale256AOWithinDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("256-core solve in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("wall-clock deadline contract is meaningless under -race instrumentation")
	}
	g := floorplan.BigLittleStacked(8, 8, 4, 0.5, 4)
	p := genPlatform(t, g, WithPaperLevels(3))

	const tmaxC = 70.0
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	plan, err := p.MaximizeContext(ctx, MethodAO, tmaxC)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("AO on %s: %v", g.Name, err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("AO on %s took %s, budget 2s", g.Name, elapsed)
	}
	if plan.Degraded {
		t.Errorf("AO on %s degraded (%s) — the scale policy must fit the deadline", g.Name, plan.DegradedReason)
	}
	if !plan.Feasible {
		t.Fatalf("AO on %s infeasible: peak %.3f °C", g.Name, plan.PeakC)
	}
	if plan.PeakC > tmaxC+1e-6 {
		t.Errorf("AO on %s: peak %.6f °C exceeds Tmax %.1f", g.Name, plan.PeakC, tmaxC)
	}
	if plan.Throughput <= 0 {
		t.Errorf("AO on %s: throughput %v", g.Name, plan.Throughput)
	}
	if len(plan.Cores) != 256 {
		t.Errorf("AO on %s: plan has %d cores", g.Name, len(plan.Cores))
	}
	// The solver's claimed peak must agree with an independent re-simulation
	// of the emitted plan through the public verification entry point.
	peak, err := p.VerifyPeakC(plan, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(peak-plan.PeakC) > 0.05 {
		t.Errorf("AO on %s: verified peak %.4f vs plan %.4f", g.Name, peak, plan.PeakC)
	}
}

// Every large sparse-backend platform class must produce AO plans that
// survive the independent first-principles oracle (dense Padé orbit +
// RK4, no shared caches): ≥8 seeded plans across planar, heterogeneous,
// and stacked large floorplans.
func TestScaleOracleAuditsLargeFloorplans(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle audits of large platforms in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("large-platform audit sweep exceeds its 30 s budgets under -race; covered by the plain suite")
	}
	cases := []struct {
		g     floorplan.GenSpec
		tmaxC []float64
	}{
		{floorplan.Mesh(8, 8), []float64{70, 80}},
		{floorplan.BigLittle(8, 8, 0.5, 2), []float64{70, 80}},
		{floorplan.Stacked3D(8, 8, 2), []float64{70, 80}},
		{floorplan.Mesh(12, 12), []float64{70, 80}},
	}
	audits := 0
	for _, tc := range cases {
		p := genPlatform(t, tc.g, WithPaperLevels(3))
		for _, tmaxC := range tc.tmaxC {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			plan, err := p.MaximizeContext(ctx, MethodAO, tmaxC)
			cancel()
			if err != nil {
				t.Fatalf("AO on %s tmax=%g: %v", tc.g.Name, tmaxC, err)
			}
			if !plan.Feasible {
				t.Fatalf("AO on %s tmax=%g infeasible", tc.g.Name, tmaxC)
			}
			rep, err := p.Audit(plan, tmaxC)
			if err != nil {
				t.Fatalf("audit on %s tmax=%g: %v", tc.g.Name, tmaxC, err)
			}
			if !rep.OK {
				t.Errorf("audit on %s tmax=%g failed:\n%s", tc.g.Name, tmaxC, rep)
			}
			audits++
		}
	}
	if audits < 8 {
		t.Fatalf("only %d oracle audits ran, want ≥8", audits)
	}
}

// The automatic package scaling must kick in above 16 cores unless the
// caller pins ConvectionR explicitly: without it a 256-core die on the
// 16-core sink is thermally mis-designed and the model build fails or
// every plan collapses to near-zero throughput.
func TestScaleAutoPackage(t *testing.T) {
	small, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rs := small.model.Package().ConvectionR
	rb := big.model.Package().ConvectionR
	if !(rb < rs) {
		t.Fatalf("256-core ConvectionR %v not below 16-core %v — package scaling missing", rb, rs)
	}
	// An explicit WithConvectionR disables the scaling: the pinned value
	// reaches the model verbatim instead of being divided by the chip-size
	// factor. (Pinning the 16-core resistance itself on a 256-core die is
	// rejected outright — the sink cannot shed the heat and the build fails
	// the stability certificate, which is the designed behavior.)
	if _, err := New(16, 16, WithConvectionR(rs)); err == nil {
		t.Fatal("256 cores on the unscaled 16-core sink built a stable model")
	}
	pin := rb * 1.5
	pinned, err := New(16, 16, WithConvectionR(pin))
	if err != nil {
		t.Fatal(err)
	}
	if got := pinned.model.Package().ConvectionR; got != pin {
		t.Fatalf("pinned ConvectionR %v, want %v", got, pin)
	}
}

// Stacked heterogeneous construction is first-class at the root API:
// layer-major scale vectors of the full core count, rejected when the
// length is wrong or combined with the core-level model.
func TestScaleStackedHeteroPlumbing(t *testing.T) {
	g := floorplan.BigLittleStacked(2, 2, 2, 0.5, 9)
	p := genPlatform(t, g)
	if p.NumCores() != 8 {
		t.Fatalf("cores = %d", p.NumCores())
	}
	if _, err := New(2, 2, WithStackedLayers(2), WithCoreScales(1, 2)); err == nil {
		t.Fatal("short stacked scale vector accepted")
	}
	if _, err := New(2, 2, WithCoreLevelModel(), WithCoreScales(1, 1, 1, 1)); err == nil {
		t.Fatal("core-level heterogeneity accepted")
	}
}
