package rig

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"thermosc/internal/floorplan"
	"thermosc/internal/mat"
	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// Controller closes the loop: the rig calls Decide once per control step
// with the latest delivered sensor readings, then samples Want at substep
// resolution to learn the desired per-core levels.
type Controller interface {
	Name() string
	// Decide observes the sensed absolute core temperatures (°C) and the
	// currently applied level indices at control-step boundaries. The
	// slices are the controller's to keep.
	Decide(now float64, sensedC []float64, applied []int)
	// Want fills out with the desired level index per core at time t
	// (-1 requests the core off). Called at substep resolution, so a
	// plan-playback controller can switch faster than the sensor period.
	Want(t float64, out []int)
}

// WarmStarter is an optional Controller extension: the rig starts the
// plant from the returned full-node state (temperature rise above the
// PLANT's ambient) instead of all-ambient, so soak runs begin in the hot
// regime the controller will actually have to defend.
type WarmStarter interface {
	WarmStart(plant *thermal.Model) ([]float64, error)
}

// InitialLeveler is an optional Controller extension fixing the level
// indices applied at t = 0 (default: every core at the highest level).
type InitialLeveler interface {
	InitialLevels(n int) []int
}

// spike is one active transient power disturbance.
type spike struct {
	core     int
	from, to float64
	watts    float64
}

// StepRecord is one control step of the recorded trace.
type StepRecord struct {
	T           float64 `json:"t"`
	TruePeakC   float64 `json:"true_peak_c"`
	SensedPeakC float64 `json:"sensed_peak_c"`
	Levels      []int   `json:"levels"`
	Violation   bool    `json:"violation"`
}

// Report summarizes one completed run.
type Report struct {
	Name              string  `json:"name"`
	Controller        string  `json:"controller"`
	Seed              int64   `json:"seed"`
	Steps             int     `json:"steps"`
	HorizonS          float64 `json:"horizon_s"`
	Throughput        float64 `json:"throughput"`
	TruePeakC         float64 `json:"true_peak_c"`
	LimitC            float64 `json:"limit_c"`
	ExcessK           float64 `json:"excess_k"`
	ViolationS        float64 `json:"violation_s"`
	ViolationEpochs   int     `json:"violation_epochs"`
	StallS            float64 `json:"stall_s"`
	Transitions       int     `json:"transitions"`
	FailedTransitions int     `json:"failed_transitions"`
	DroppedSamples    int     `json:"dropped_samples"`
	StuckSamples      int     `json:"stuck_samples"`
	Spikes            int     `json:"spikes"`
	TraceSHA256       string  `json:"trace_sha256"`
}

// Rig is one closed-loop emulation instance, driven by one goroutine:
// Run steps the plant and returns the Report, and nothing reads the rig
// while it runs.
type Rig struct {
	sc      Scenario
	planner *thermal.Model
	plant   *thermal.Model
	levels  *power.LevelSet
	prop    *thermal.Propagator // plant operator cache
	unit    *mat.Dense          // plant steady response to 1 W per core

	ran bool // Run was called

	ctrl    Controller
	step    int
	steps   int
	subDt   float64
	state   []float64 // plant node temperatures (rise above plant ambient)
	applied []int     // level index per core, -1 = off

	pendActive []bool
	pendTarget []int
	pendUntil  []float64

	sensed    []float64 // last delivered absolute readings (°C)
	stuckLeft []float64
	stuckVal  []float64
	spikes    []spike

	// Independent per-family fault streams, all derived from the scenario
	// seed: the sensor-noise and spike-arrival sequences are identical
	// across controllers on the same scenario, so comparisons are
	// apples-to-apples; only the actuation-failure draws depend on how
	// often the controller actually commands transitions.
	rngSensor, rngActuator, rngPower *rand.Rand

	work              float64
	stallS            float64
	truePeakC         float64
	violS             float64
	violEpochs        int
	inViol            bool
	transitions       int
	failedTransitions int
	dropped           int
	stuckSamples      int
	spikeCount        int
	trace             []StepRecord

	wantBuf  []int
	extraBuf []float64
	modesBuf []power.Mode
}

// Seed salts for the independent fault streams and the plant draw.
const (
	saltPlant    = 0x706c616e74 // "plant"
	saltSensor   = 0x73656e73   // "sens"
	saltActuator = 0x61637475   // "actu"
	saltPower    = 0x706f7765   // "powe"
)

// New builds the rig for a canonical copy of sc: the planner's nominal
// model, the (possibly perturbed) true plant, and the seeded fault
// streams. The plant perturbation itself is seed-pinned — the same
// scenario always yields the same plant.
func New(sc *Scenario) (*Rig, error) {
	cp := *sc
	if err := cp.Canon(); err != nil {
		return nil, err
	}
	fp, err := floorplan.Grid(cp.Rows, cp.Cols, 4e-3)
	if err != nil {
		return nil, fmt.Errorf("rig: %w", err)
	}
	pm := power.DefaultModel()
	planner, err := thermal.NewModel(fp, thermal.HotSpot65nm(), pm)
	if err != nil {
		return nil, fmt.Errorf("rig: planner model: %w", err)
	}
	ppPlant := thermal.HotSpot65nm()
	ppPlant.ConvectionR *= cp.Mismatch.ConvFactor
	ppPlant.AmbientC += cp.Mismatch.AmbientOffsetC
	var scales []float64
	if s := cp.Mismatch.CoreScaleSpread; s > 0 {
		r := rand.New(rand.NewSource(cp.Seed ^ saltPlant))
		scales = make([]float64, fp.NumCores())
		for i := range scales {
			scales[i] = 1 + s*(2*r.Float64()-1)
		}
	}
	plant, err := thermal.NewHeteroModel(fp, ppPlant, pm, scales)
	if err != nil {
		return nil, fmt.Errorf("rig: plant model: %w", err)
	}
	levels, err := power.PaperLevels(cp.PaperLevels)
	if err != nil {
		return nil, fmt.Errorf("rig: %w", err)
	}
	n := plant.NumCores()
	r := &Rig{
		sc:      cp,
		planner: planner,
		plant:   plant,
		levels:  levels,
		prop:    thermal.NewPropagator(plant),
		unit:    plant.UnitResponses(),

		steps:      int(math.Ceil(cp.HorizonS / cp.StepS)),
		subDt:      cp.StepS / float64(cp.SubSteps),
		state:      plant.ZeroState(),
		applied:    make([]int, n),
		pendActive: make([]bool, n),
		pendTarget: make([]int, n),
		pendUntil:  make([]float64, n),
		sensed:     make([]float64, n),
		stuckLeft:  make([]float64, n),
		stuckVal:   make([]float64, n),

		rngSensor:   rand.New(rand.NewSource(cp.Seed ^ saltSensor)),
		rngActuator: rand.New(rand.NewSource(cp.Seed ^ saltActuator)),
		rngPower:    rand.New(rand.NewSource(cp.Seed ^ saltPower)),

		wantBuf:  make([]int, n),
		extraBuf: make([]float64, n),
		modesBuf: make([]power.Mode, n),
	}
	return r, nil
}

// Scenario returns the canonical scenario the rig runs (copy).
func (r *Rig) Scenario() Scenario { return r.sc }

// PlannerModel returns the nominal model controllers should plan and
// predict on (the plant may differ).
func (r *Rig) PlannerModel() *thermal.Model { return r.planner }

// Levels returns the platform's DVFS level set.
func (r *Rig) Levels() *power.LevelSet { return r.levels }

// LimitC returns the violation threshold: TmaxC + GuardK.
func (r *Rig) LimitC() float64 { return r.sc.TmaxC + r.sc.GuardK }

// Run drives ctrl in closed loop for the scenario horizon and returns the
// run report. A Rig runs at most once; build a fresh Rig to repeat.
func (r *Rig) Run(ctrl Controller) (*Report, error) {
	if r.ran {
		return nil, fmt.Errorf("rig: Run called twice on one Rig")
	}
	r.ran = true
	r.ctrl = ctrl

	n := r.plant.NumCores()
	if il, ok := ctrl.(InitialLeveler); ok {
		init := il.InitialLevels(n)
		if len(init) != n {
			return nil, fmt.Errorf("rig: controller initial levels: %d for %d cores", len(init), n)
		}
		copy(r.applied, init)
	} else {
		for i := range r.applied {
			r.applied[i] = r.levels.Len() - 1
		}
	}
	for i, l := range r.applied {
		if l < -1 || l >= r.levels.Len() {
			return nil, fmt.Errorf("rig: initial level %d for core %d outside [-1,%d)", l, i, r.levels.Len())
		}
	}
	if ws, ok := ctrl.(WarmStarter); ok {
		st, err := ws.WarmStart(r.plant)
		if err != nil {
			return nil, fmt.Errorf("rig: warm start: %w", err)
		}
		if len(st) != r.plant.NumNodes() {
			return nil, fmt.Errorf("rig: warm-start state has %d nodes, want %d", len(st), r.plant.NumNodes())
		}
		copy(r.state, st)
	}
	// Initial telemetry: a clean read so the first Decide sees the real
	// starting temperatures rather than zeros.
	for i := 0; i < n; i++ {
		r.sensed[i] = r.plant.Absolute(r.state[i])
	}
	r.trackPeak()

	for r.step < r.steps {
		r.advance()
	}
	return r.report(), nil
}

// advance runs one control step.
func (r *Rig) advance() {
	n := r.plant.NumCores()
	t0 := float64(r.step) * r.sc.StepS

	r.ctrl.Decide(t0, append([]float64(nil), r.sensed...), append([]int(nil), r.applied...))

	// Spike arrival (one Bernoulli per control step).
	if p := r.sc.Power.SpikeProb; p > 0 {
		if r.rngPower.Float64() < p {
			core := r.rngPower.Intn(n)
			r.spikes = append(r.spikes, spike{
				core: core, from: t0, to: t0 + r.sc.Power.SpikeDurS, watts: r.sc.Power.SpikeW,
			})
			r.spikeCount++
		}
	}

	violated := false
	for s := 0; s < r.sc.SubSteps; s++ {
		ts := t0 + float64(s)*r.subDt

		// Land completed transitions.
		for i := 0; i < n; i++ {
			if r.pendActive[i] && ts >= r.pendUntil[i]-1e-12 {
				r.applied[i] = r.pendTarget[i]
				r.pendActive[i] = false
			}
		}
		// Issue new commands where the controller's wish differs. A core
		// mid-transition ignores further commands until its rail settles.
		r.ctrl.Want(ts, r.wantBuf)
		for i := 0; i < n; i++ {
			want := r.wantBuf[i]
			if want < -1 || want >= r.levels.Len() {
				want = clampLevel(want, r.levels.Len())
			}
			if r.pendActive[i] || want == r.applied[i] {
				continue
			}
			r.transitions++
			if p := r.sc.Actuator.FailProb; p > 0 && r.rngActuator.Float64() < p {
				r.failedTransitions++
				continue
			}
			if r.sc.Actuator.LatencyS <= 0 {
				r.applied[i] = want
				continue
			}
			r.pendActive[i] = true
			r.pendTarget[i] = want
			r.pendUntil[i] = ts + r.sc.Actuator.LatencyS
		}

		// Effective modes and work for this substep: stalled cores burn
		// at the higher of the two voltages and complete no work.
		var speed float64
		for i := 0; i < n; i++ {
			if r.pendActive[i] {
				v := math.Max(levelVoltage(r.levels, r.applied[i]), levelVoltage(r.levels, r.pendTarget[i]))
				r.modesBuf[i] = power.NewMode(v)
				r.stallS += r.subDt
				continue
			}
			if r.applied[i] < 0 {
				r.modesBuf[i] = power.ModeOff
			} else {
				m := r.levels.Mode(r.applied[i])
				r.modesBuf[i] = m
				speed += m.Speed()
			}
		}
		r.work += speed * r.subDt

		// Extra power: leakage drift plus active spikes.
		anyExtra := false
		drift := math.Min(r.sc.Power.LeakDriftWPerS*ts, r.sc.Power.LeakDriftMaxW)
		for i := 0; i < n; i++ {
			r.extraBuf[i] = drift
			if drift > 0 {
				anyExtra = true
			}
		}
		live := r.spikes[:0]
		for _, sp := range r.spikes {
			if ts >= sp.to {
				continue
			}
			live = append(live, sp)
			if ts >= sp.from {
				r.extraBuf[sp.core] += sp.watts
				anyExtra = true
			}
		}
		r.spikes = live

		tinf := r.prop.SteadyState(r.modesBuf)
		if anyExtra {
			// T∞ responds linearly to injected watts: add the unit
			// responses scaled by the extra power. Clone first — the
			// propagator's slice is shared cache state.
			shifted := mat.VecClone(tinf)
			for j := 0; j < n; j++ {
				if w := r.extraBuf[j]; w != 0 {
					for d := 0; d < r.plant.NumNodes(); d++ {
						shifted[d] += w * r.unit.At(d, j)
					}
				}
			}
			tinf = shifted
		}
		r.state = r.prop.Step(r.subDt, r.state, tinf)

		if r.trackPeak() {
			violated = true
			r.violS += r.subDt
			if !r.inViol {
				r.inViol = true
				r.violEpochs++
			}
		} else {
			r.inViol = false
		}
	}

	r.readSensors(t0 + r.sc.StepS)

	sensedPeak := r.sensed[0]
	for _, v := range r.sensed[1:] {
		if v > sensedPeak {
			sensedPeak = v
		}
	}
	truePeak := r.plant.Absolute(r.state[0])
	for i := 1; i < n; i++ {
		if c := r.plant.Absolute(r.state[i]); c > truePeak {
			truePeak = c
		}
	}
	r.trace = append(r.trace, StepRecord{
		T:           roundT(t0 + r.sc.StepS),
		TruePeakC:   truePeak,
		SensedPeakC: sensedPeak,
		Levels:      append([]int(nil), r.applied...),
		Violation:   violated,
	})
	r.step++
}

// trackPeak updates the true-peak statistic and reports whether the
// current state violates TmaxC + GuardK.
func (r *Rig) trackPeak() bool {
	limit := r.LimitC()
	viol := false
	for i := 0; i < r.plant.NumCores(); i++ {
		c := r.plant.Absolute(r.state[i])
		if c > r.truePeakC {
			r.truePeakC = c
		}
		if c > limit {
			viol = true
		}
	}
	return viol
}

// readSensors produces the per-core telemetry for the step ending at t:
// noise and quantization first, then stuck-at, then dropout (a stuck
// sensor keeps reporting its frozen value; a dropped sample re-delivers
// the previous reading).
func (r *Rig) readSensors(t float64) {
	sf := r.sc.Sensor
	for i := 0; i < r.plant.NumCores(); i++ {
		raw := r.plant.Absolute(r.state[i])
		if sf.NoiseStdK > 0 {
			raw += r.rngSensor.NormFloat64() * sf.NoiseStdK
		}
		if sf.QuantStepK > 0 {
			raw = math.Round(raw/sf.QuantStepK) * sf.QuantStepK
		}
		if r.stuckLeft[i] > 0 {
			r.stuckLeft[i] -= r.sc.StepS
			r.sensed[i] = r.stuckVal[i]
			r.stuckSamples++
			continue
		}
		if sf.StuckProb > 0 && r.rngSensor.Float64() < sf.StuckProb {
			r.stuckLeft[i] = sf.StuckDurS - r.sc.StepS
			r.stuckVal[i] = raw
			r.sensed[i] = raw
			r.stuckSamples++
			continue
		}
		if sf.DropoutProb > 0 && r.rngSensor.Float64() < sf.DropoutProb {
			r.dropped++
			continue // hold the last delivered value
		}
		r.sensed[i] = raw
	}
}

// report builds the final Report (called after the run loop ends).
func (r *Rig) report() *Report {
	tj, err := json.Marshal(r.trace)
	if err != nil {
		tj = nil // cannot happen for these types; keep the hash empty
	}
	sum := sha256.Sum256(tj)
	n := float64(r.plant.NumCores())
	horizon := float64(r.steps) * r.sc.StepS
	return &Report{
		Name:              r.sc.Name,
		Controller:        r.ctrl.Name(),
		Seed:              r.sc.Seed,
		Steps:             r.steps,
		HorizonS:          horizon,
		Throughput:        r.work / (n * horizon),
		TruePeakC:         r.truePeakC,
		LimitC:            r.LimitC(),
		ExcessK:           math.Max(0, r.truePeakC-r.LimitC()),
		ViolationS:        r.violS,
		ViolationEpochs:   r.violEpochs,
		StallS:            r.stallS,
		Transitions:       r.transitions,
		FailedTransitions: r.failedTransitions,
		DroppedSamples:    r.dropped,
		StuckSamples:      r.stuckSamples,
		Spikes:            r.spikeCount,
		TraceSHA256:       hex.EncodeToString(sum[:]),
	}
}

func levelVoltage(ls *power.LevelSet, idx int) float64 {
	if idx < 0 {
		return 0
	}
	return ls.Mode(idx).Voltage
}

func clampLevel(l, n int) int {
	if l < -1 {
		return -1
	}
	if l >= n {
		return n - 1
	}
	return l
}

// roundT snaps a trace timestamp to nanosecond resolution so the JSON
// stays tidy; the value is derived deterministically either way.
func roundT(t float64) float64 { return math.Round(t*1e9) / 1e9 }
