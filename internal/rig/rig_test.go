package rig

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"thermosc/internal/governor"
)

// Every reactive governor runs on the rig directly, and the predictive
// one's observer takes the warm start's state.
var (
	_ Controller  = (*governor.StepWise)(nil)
	_ Controller  = (*governor.OnOff)(nil)
	_ Controller  = (*governor.PI)(nil)
	_ Controller  = (*governor.Predictive)(nil)
	_ stateSeeder = (*governor.Predictive)(nil)
)

// faultySc is a short, fully loaded scenario exercising every fault
// family at once.
func faultySc(seed int64) *Scenario {
	return &Scenario{
		Seed:     seed,
		HorizonS: 2,
		Sensor:   SensorFaults{NoiseStdK: 0.8, QuantStepK: 0.5, DropoutProb: 0.02, StuckProb: 0.001},
		Actuator: ActuatorFaults{LatencyS: 1.5e-3, FailProb: 0.02},
		Power:    PowerFaults{SpikeProb: 0.01, SpikeW: 1, SpikeDurS: 0.3, LeakDriftWPerS: 0.05, LeakDriftMaxW: 0.3},
		Mismatch: PlantMismatch{CoreScaleSpread: 0.02, ConvFactor: 1.03, AmbientOffsetC: 0.5},
	}
}

func guardedReport(t *testing.T, sc *Scenario) *Report {
	t.Helper()
	r, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanAO(r)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := GuardFor(r.Scenario(), plan, r.Levels())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(guard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Same seed ⇒ byte-identical trace JSON and identical report; a different
// seed must actually change the run.
func TestRigDeterminism(t *testing.T) {
	rep1 := guardedReport(t, faultySc(7))
	rep2 := guardedReport(t, faultySc(7))
	if rep1.TraceSHA256 != rep2.TraceSHA256 {
		t.Fatalf("same seed, different traces: %s vs %s", rep1.TraceSHA256, rep2.TraceSHA256)
	}
	b1, _ := json.Marshal(rep1)
	b2, _ := json.Marshal(rep2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed, different reports:\n%s\n%s", b1, b2)
	}
	rep3 := guardedReport(t, faultySc(8))
	if rep3.TraceSHA256 == rep1.TraceSHA256 {
		t.Fatal("different seeds produced identical traces")
	}
}

// The trace JSON itself (not just its hash) must be reproducible.
func TestRigTraceJSONDeterministic(t *testing.T) {
	run := func() []byte {
		sc := faultySc(11)
		r, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanAO(r)
		if err != nil {
			t.Fatal(err)
		}
		guard, err := GuardFor(r.Scenario(), plan, r.Levels())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(guard); err != nil {
			t.Fatal(err)
		}
		tj, err := r.TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		return tj
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("trace JSON differs between identical runs")
	}
	var trace []StepRecord
	if err := json.Unmarshal(a, &trace); err != nil {
		t.Fatalf("trace JSON malformed: %v", err)
	}
	if len(trace) != 200 { // 2 s at 10 ms
		t.Fatalf("trace has %d steps, want 200", len(trace))
	}
}

// Each fault family must leave its fingerprint: counters move, and the
// trajectory diverges from the clean run.
func TestRigFaultsLeaveFingerprints(t *testing.T) {
	clean := guardedReport(t, &Scenario{Seed: 7, HorizonS: 2})
	faulty := guardedReport(t, faultySc(7))
	if clean.TraceSHA256 == faulty.TraceSHA256 {
		t.Fatal("fault injection did not change the trajectory")
	}
	if clean.Spikes != 0 || clean.DroppedSamples != 0 || clean.StuckSamples != 0 || clean.FailedTransitions != 0 {
		t.Fatalf("clean run shows fault counters: %+v", clean)
	}
	if clean.StallS != 0 {
		t.Fatalf("clean run stalled %v s with zero latency", clean.StallS)
	}
	if faulty.DroppedSamples == 0 {
		t.Fatal("dropout fault never dropped a sample")
	}
	if faulty.StallS == 0 {
		t.Fatal("actuation latency never stalled a core")
	}
	if faulty.Transitions == 0 {
		t.Fatal("plan playback issued no transitions")
	}
}

// The headline soak property in miniature: a guarded AO plan keeps the
// true peak inside Tmax + guard band despite the full fault family.
func TestGuardedAOHoldsGuardBand(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rep := guardedReport(t, faultySc(seed))
		if rep.ViolationS > 0 || rep.ExcessK > 0 {
			t.Fatalf("seed %d: violated %v s, excess %.3f K (peak %.3f, limit %.3f)",
				seed, rep.ViolationS, rep.ExcessK, rep.TruePeakC, rep.LimitC)
		}
		if rep.Throughput <= 0 {
			t.Fatalf("seed %d: throughput %v", seed, rep.Throughput)
		}
	}
}

func TestRigRunsOnce(t *testing.T) {
	sc := &Scenario{Seed: 1, HorizonS: 0.1}
	r, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := constCtrl{}
	if _, err := r.Run(ctrl); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctrl); err == nil {
		t.Fatal("second Run must fail")
	}
}

// constCtrl always asks for the lowest level.
type constCtrl struct{}

func (constCtrl) Name() string                     { return "const" }
func (constCtrl) Decide(float64, []float64, []int) {}
func (constCtrl) Want(_ float64, out []int)        { clear(out) }

// Readings round to the nearest QuantStepK multiple; read noise moves
// them off the truth but keeps them on the quantization grid.
func TestSensorQuantizationAndNoise(t *testing.T) {
	r, err := New(&Scenario{Seed: 1, Sensor: SensorFaults{QuantStepK: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []float64{64.9, 66.1, 37.2} {
		r.state[i] = r.plant.Rise(c)
	}
	r.readSensors(0)
	if got := r.SensedC(); got[0] != 64 || got[1] != 66 || got[2] != 38 {
		t.Fatalf("quantization wrong: %v", got)
	}

	r, err = New(&Scenario{Seed: 1, Sensor: SensorFaults{NoiseStdK: 1, QuantStepK: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		r.state[i] = r.plant.Rise(50)
	}
	moved := false
	for range 20 {
		r.readSensors(0)
		for _, v := range r.SensedC() {
			if v != math.Round(v) {
				t.Fatalf("noisy reading %v off the 1 K grid", v)
			}
			moved = moved || v != 50
		}
	}
	if !moved {
		t.Fatal("1 K read noise never moved a reading off the truth")
	}
}

func TestRigRejectsInvalidScenario(t *testing.T) {
	if _, err := New(&Scenario{Rows: 100}); err == nil {
		t.Fatal("oversized grid accepted")
	}
}

// The caller's scenario must not be mutated by New (it canonicalizes a
// copy).
func TestNewDoesNotMutateCaller(t *testing.T) {
	sc := &Scenario{Seed: 5}
	if _, err := New(sc); err != nil {
		t.Fatal(err)
	}
	if sc.Rows != 0 || sc.TmaxC != 0 {
		t.Fatalf("New mutated the caller's scenario: %+v", sc)
	}
}

func TestRandomScenariosPinned(t *testing.T) {
	a, err := RandomScenarios(nil, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomScenarios(nil, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RandomScenarios is not seed-pinned")
	}
	c, err := RandomScenarios(nil, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different soak seeds produced identical scenarios")
	}
	seen := map[int64]bool{}
	for _, sc := range a {
		if seen[sc.Seed] {
			t.Fatalf("duplicate scenario seed %d", sc.Seed)
		}
		seen[sc.Seed] = true
	}
}

// A small soak end to end: pass, deterministic, outcomes in index order.
func TestSoakSmall(t *testing.T) {
	base := &Scenario{HorizonS: 2}
	rep, err := soak(base, 4, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("small soak failed: %d violations, %d nondeterministic",
			rep.Violations, rep.NonDeterministic)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("%d outcomes", len(rep.Scenarios))
	}
	for i, oc := range rep.Scenarios {
		if want := "soak-00" + string(rune('0'+i)); oc.Scenario.Name != want {
			t.Fatalf("outcome %d is %q, want %q (order lost)", i, oc.Scenario.Name, want)
		}
		if !oc.Deterministic {
			t.Fatalf("scenario %d nondeterministic", i)
		}
	}
	if _, err := soak(nil, 0, 1, 1, 0); err == nil {
		t.Fatal("zero-scenario soak must error")
	}
}

// Compare pits three controllers against identical fault streams; the
// spike/noise sequences must match across runs.
func TestCompareControllers(t *testing.T) {
	sc := faultySc(9)
	rep, err := Compare(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("%d runs", len(rep.Runs))
	}
	names := map[string]bool{}
	for _, run := range rep.Runs {
		names[run.Controller] = true
		if run.Steps != 200 {
			t.Fatalf("%s ran %d steps", run.Controller, run.Steps)
		}
	}
	for _, want := range []string{"plan-guard", "step-wise", "predictive"} {
		if !names[want] {
			t.Fatalf("missing controller %q in %v", want, names)
		}
	}
	// Identical fault streams: the spike count is controller-independent.
	for _, run := range rep.Runs[1:] {
		if run.Spikes != rep.Runs[0].Spikes {
			t.Fatalf("spike streams diverge: %d vs %d (%s)",
				run.Spikes, rep.Runs[0].Spikes, run.Controller)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	sc := &Scenario{Seed: 1, HorizonS: 0.5}
	r, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(constCtrl{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 50 || rep.HorizonS != 0.5 {
		t.Fatalf("report after run: %+v", rep)
	}
	temps := r.TrueTempsC()
	sensed := r.SensedC()
	if len(temps) != 3 || len(sensed) != 3 {
		t.Fatalf("reader lengths %d/%d", len(temps), len(sensed))
	}
	for i, c := range temps {
		if c < 20 || c > 100 {
			t.Fatalf("core %d true temp %.2f implausible", i, c)
		}
	}
}

// wildCtrl asks for out-of-range levels; the rig must clamp, not panic.
type wildCtrl struct{}

func (wildCtrl) Name() string                     { return "wild" }
func (wildCtrl) Decide(float64, []float64, []int) {}
func (wildCtrl) Want(_ float64, out []int) {
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = 99 // above the top level
		case 1:
			out[i] = -7 // below "off"
		default:
			out[i] = 0
		}
	}
}

func TestRigClampsWildController(t *testing.T) {
	r, err := New(&Scenario{Seed: 3, HorizonS: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(wildCtrl{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.TrueTempsC() {
		if c < 0 || c > 200 {
			t.Fatalf("clamped run diverged: %v °C", c)
		}
	}
	if rep.Steps != 20 {
		t.Fatalf("steps %d", rep.Steps)
	}
}

func TestRigAccessors(t *testing.T) {
	r, err := New(&Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.PlannerModel() == nil || r.plant == nil || r.Levels() == nil {
		t.Fatal("nil accessor")
	}
	if r.LimitC() != 67 { // default 65 + 2
		t.Fatalf("limit %v", r.LimitC())
	}
	plan, err := PlanAO(r)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := GuardFor(r.Scenario(), plan, r.Levels())
	if err != nil {
		t.Fatal(err)
	}
	if got := guard.Cap(); got != r.Levels().Len()-1 {
		t.Fatalf("fresh guard cap %d", got)
	}
	// The watchdog trips on a hot reading and recovers on a cold one.
	hot := make([]float64, 3)
	for i := range hot {
		hot[i] = 80
	}
	guard.Decide(0, hot, []int{0, 0, 0})
	if guard.Cap() != 0 {
		t.Fatalf("cap after hot reading: %d", guard.Cap())
	}
	cold := []float64{30, 30, 30}
	guard.Decide(0, cold, []int{0, 0, 0})
	if guard.Cap() != 1 {
		t.Fatalf("cap after cold reading: %d", guard.Cap())
	}
}

// Every compared controller shares the plan's hot warm start. Over a
// 1 s window a cold start could never reach the thermal band, so hot
// peaks prove the warm start took for the baselines too — and the seeded
// observer keeps the predictive baseline from violating while its hidden
// package nodes would otherwise converge from a fictitious cold state.
func TestCompareWarmStartsBaselines(t *testing.T) {
	sc := &Scenario{Seed: 5, HorizonS: 1}
	rep, err := Compare(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.TruePeakC < 60 {
			t.Fatalf("%s peaked at %.2f °C over %gs — cold start leaked into Compare",
				run.Controller, run.TruePeakC, sc.HorizonS)
		}
		if run.ViolationS != 0 {
			t.Fatalf("%s violated for %gs on a fault-free scenario",
				run.Controller, run.ViolationS)
		}
	}
}

// SensedC returns the latest delivered sensor readings (absolute °C).
func (r *Rig) SensedC() []float64 {
	return append([]float64(nil), r.sensed...)
}

// TrueTempsC returns the plant's true core temperatures (absolute °C).
func (r *Rig) TrueTempsC() []float64 {
	out := make([]float64, r.plant.NumCores())
	for i := range out {
		out[i] = r.plant.Absolute(r.state[i])
	}
	return out
}

// TraceJSON renders the recorded per-step trace as deterministic JSON:
// the same scenario seed always produces byte-identical output.
func (r *Rig) TraceJSON() ([]byte, error) {
	return json.Marshal(r.trace)
}
