package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"thermosc"
	"thermosc/internal/cluster"
	"thermosc/internal/floorplan"
	"thermosc/internal/power"
	"thermosc/internal/sim"
	"thermosc/internal/solver"
	"thermosc/internal/thermal"
)

// The layer replay re-runs each distinct cold key of a traced run outside
// the server, one timed call per layer: the solver (mirroring
// Platform.MaximizeContext on one shared sim.Engine per platform, as the
// server shares one per cached platform), the plan marshal, and the
// response encode. The replayed plan bytes must equal the served bytes,
// which checks that the mirror measures what the server runs.

// replayPlatform is the solver's view of one platform.
type replayPlatform struct {
	md     *thermal.Model
	levels *power.LevelSet
	eng    *sim.Engine
}

// buildReplayPlatform mirrors thermosc.New for the specs the workloads
// send: paper level set, default package scaled by the core count,
// optional stack and per-core scales.
func buildReplayPlatform(spec thermosc.PlatformSpec) (*replayPlatform, error) {
	edge := spec.CoreEdgeM
	if edge == 0 {
		edge = 4e-3
	}
	fp, err := floorplan.Grid(spec.Rows, spec.Cols, edge)
	if err != nil {
		return nil, err
	}
	layers := max(spec.StackLayers, 1)
	pkg := thermal.ScaledPackage(thermal.HotSpot65nm(), spec.Rows*spec.Cols*layers)
	var md *thermal.Model
	if layers > 1 {
		sp := thermal.DefaultStack(layers)
		sp.PackageParams = pkg
		sp.Layers = layers
		md, err = thermal.NewStackedModel(fp, sp, power.DefaultModel(), thermal.WithHeteroScales(spec.CoreScales))
	} else {
		md, err = thermal.NewHeteroModel(fp, pkg, power.DefaultModel(), spec.CoreScales)
	}
	if err != nil {
		return nil, err
	}
	levels, err := power.PaperLevels(spec.PaperLevels)
	if err != nil {
		return nil, err
	}
	return &replayPlatform{md: md, levels: levels, eng: sim.NewEngine(md)}, nil
}

// replayRecord is one replayed cold key.
type replayRecord struct {
	Key        string  `json:"key"`
	Name       string  `json:"name"`
	SolveMs    float64 `json:"solve_ms"`
	Evals      int64   `json:"evals"`
	MEvaluated int     `json:"m_evaluated"`
	Degraded   bool    `json:"degraded"`
	MarshalUs  float64 `json:"marshal_us"`
	PlanBytes  int     `json:"plan_bytes"`
	EncodeUs   float64 `json:"encode_us"`
	BytesEqual bool    `json:"bytes_equal"`
}

// replaySolve runs one key through the solver and returns the result,
// the plan the server would build from it, and the solve time.
func replaySolve(p *replayPlatform, req thermosc.MaximizeRequest) (*solver.Result, *thermosc.Plan, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeoutS*time.Second)
	defer cancel()
	prob := solver.Problem{
		Model:      p.md,
		Levels:     p.levels,
		TmaxC:      req.TmaxC,
		Overhead:   power.DefaultOverhead(),
		BasePeriod: 20e-3,
		Ctx:        ctx,
		Engine:     p.eng,
	}
	start := time.Now()
	var res *solver.Result
	var err error
	switch req.Method {
	case thermosc.MethodAO:
		res, err = solver.AO(prob)
	case thermosc.MethodPCO:
		res, err = solver.PCO(prob)
	case thermosc.MethodLNS:
		res, err = solver.LNS(prob)
	default:
		err = fmt.Errorf("replay: method %q not in any workload", req.Method)
	}
	d := time.Since(start)
	if err != nil {
		return nil, nil, d, err
	}
	return res, planOf(p.md, req.Method, res), d, nil
}

// planOf mirrors the package's plan construction, with the wall-clock
// field zeroed as the server zeroes it before caching.
func planOf(md *thermal.Model, m thermosc.Method, res *solver.Result) *thermosc.Plan {
	plan := &thermosc.Plan{
		Method:         m,
		Throughput:     res.Throughput,
		PeakC:          res.PeakC(md),
		Feasible:       res.Feasible,
		M:              res.M,
		Degraded:       res.Degraded != solver.DegradedNone,
		DegradedReason: string(res.Degraded),
	}
	if res.Schedule != nil {
		plan.PeriodS = res.Schedule.Period()
		plan.Cores = make([][]thermosc.Slice, res.Schedule.NumCores())
		for i := range plan.Cores {
			for _, seg := range res.Schedule.CoreSegments(i) {
				plan.Cores[i] = append(plan.Cores[i], thermosc.Slice{Seconds: seg.Length, Voltage: seg.Mode.Voltage})
			}
		}
	}
	return plan
}

// encodeReps is how many times each response encode is timed; the
// record keeps the median.
const encodeReps = 9

// timeEncode times writing a MaximizeResponse carrying the served plan
// bytes the way the server writes it (json.Encoder on the response).
func timeEncode(planBytes []byte, key string) time.Duration {
	resp := thermosc.MaximizeResponse{Plan: planBytes, Key: key, ElapsedS: 0.0123}
	ds := make([]float64, encodeReps)
	for i := range ds {
		start := time.Now()
		_ = json.NewEncoder(io.Discard).Encode(resp)
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// coldKey is one distinct key a traced run solved.
type coldKey struct {
	key  string // response key digest
	body []byte
	name string
	plan []byte // served bytes
}

// replayResult is the replay's output for the metrics.
type replayResult struct {
	records    []replayRecord
	costs      map[string]replayCost
	platforms  map[string]*replayPlatform
	peakDense  []float64 // per-platform median StepUpPeak µs
	peakSparse []float64
	mismatches []string
}

// peakEvalPlans bounds the AO schedules timed per platform.
const (
	peakEvalPlans = 8
	peakEvalReps  = 16
)

// replay replays the keys in the order the server first solved them,
// after solving the workload's prefill untimed, so the replay engines
// start as warm as the server's did.
func replay(prefill []benchReq, keys []coldKey) (*replayResult, error) {
	rr := &replayResult{costs: make(map[string]replayCost), platforms: make(map[string]*replayPlatform)}
	var order []string
	platform := func(name string, body []byte) (*replayPlatform, thermosc.MaximizeRequest, string, error) {
		var req thermosc.MaximizeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, req, "", fmt.Errorf("replay: decoding %s: %w", name, err)
		}
		pk := platformKey(req.Platform)
		p, ok := rr.platforms[pk]
		if !ok {
			var err error
			if p, err = buildReplayPlatform(req.Platform); err != nil {
				return nil, req, "", fmt.Errorf("replay: building %s: %w", name, err)
			}
			rr.platforms[pk] = p
			order = append(order, pk)
		}
		return p, req, pk, nil
	}
	for _, r := range prefill {
		p, req, _, err := platform(r.name, r.body)
		if err != nil {
			return nil, err
		}
		if _, _, _, err := replaySolve(p, req); err != nil {
			return nil, fmt.Errorf("replay: prefill %s: %w", r.name, err)
		}
	}
	aoScheds := make(map[string][]*solver.Result)
	for _, k := range keys {
		p, req, pk, err := platform(k.name, k.body)
		if err != nil {
			return nil, err
		}
		res, plan, solveD, err := replaySolve(p, req)
		if err != nil {
			return nil, fmt.Errorf("replay: solving %s: %w", k.name, err)
		}
		start := time.Now()
		b, err := json.Marshal(plan)
		marshalD := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("replay: marshaling %s: %w", k.name, err)
		}
		encD := timeEncode(k.plan, k.key)
		equal := bytes.Equal(b, k.plan)
		if !equal {
			rr.mismatches = append(rr.mismatches, k.name)
		}
		rr.records = append(rr.records, replayRecord{
			Key: k.key, Name: k.name, SolveMs: ms(solveD), Evals: res.Evals, MEvaluated: res.MEvaluated,
			Degraded: plan.Degraded, MarshalUs: us(marshalD), PlanBytes: len(b), EncodeUs: us(encD), BytesEqual: equal,
		})
		rr.costs[k.key] = replayCost{solve: solveD, marshal: marshalD, encode: encD}
		if req.Method == thermosc.MethodAO && res.Schedule != nil && len(aoScheds[pk]) < peakEvalPlans {
			aoScheds[pk] = append(aoScheds[pk], res)
		}
	}
	for _, pk := range order {
		p := rr.platforms[pk]
		var ds []float64
		for _, res := range aoScheds[pk] {
			if _, _, err := p.eng.StepUpPeak(res.Schedule); err != nil { // warm
				return nil, fmt.Errorf("replay: peak eval: %w", err)
			}
			for r := 0; r < peakEvalReps; r++ {
				start := time.Now()
				_, _, _ = p.eng.StepUpPeak(res.Schedule)
				ds = append(ds, us(time.Since(start)))
			}
		}
		if len(ds) == 0 {
			continue
		}
		if p.md.SparsePath() {
			rr.peakSparse = append(rr.peakSparse, median(ds))
		} else {
			rr.peakDense = append(rr.peakDense, median(ds))
		}
	}
	return rr, nil
}

// platformKey identifies a platform spec within one run.
func platformKey(s thermosc.PlatformSpec) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// propagatorStats sums the replay engines' operator-cache counters.
func (rr *replayResult) propagatorStats() thermal.PropagatorStats {
	var t thermal.PropagatorStats
	for _, p := range rr.platforms {
		s := p.eng.Propagator().Stats()
		t.SteadyHits += s.SteadyHits
		t.SteadyMisses += s.SteadyMisses
		t.ExpHits += s.ExpHits
		t.ExpMisses += s.ExpMisses
	}
	return t
}

// buildTimes times thermosc.New for each named catalog platform, the
// median of `reps` builds each.
func buildTimes(names []string, reps int) (map[string]float64, error) {
	out := make(map[string]float64, len(names))
	for _, name := range names {
		ds := make([]float64, reps)
		for r := range ds {
			start := time.Now()
			if _, err := newPlatform(platformSpec(name)); err != nil {
				return nil, fmt.Errorf("building %s: %w", name, err)
			}
			ds[r] = ms(time.Since(start))
		}
		out[name] = median(ds)
	}
	return out, nil
}

// newPlatform builds the public Platform a workload spec describes.
func newPlatform(spec thermosc.PlatformSpec) (*thermosc.Platform, error) {
	opts := []thermosc.Option{thermosc.WithPaperLevels(spec.PaperLevels)}
	if spec.CoreEdgeM != 0 {
		opts = append(opts, thermosc.WithCoreEdge(spec.CoreEdgeM))
	}
	if spec.StackLayers > 1 {
		opts = append(opts, thermosc.WithStackedLayers(spec.StackLayers))
	}
	if len(spec.CoreScales) > 0 {
		opts = append(opts, thermosc.WithCoreScales(spec.CoreScales...))
	}
	return thermosc.New(spec.Rows, spec.Cols, opts...)
}

// clusterMicro times the fleet's routing and store primitives on the
// run's own entries: Ring.Owner over the request keys on a fixed
// 3-node ring, and MemStore Put/Get of the served plans.
func clusterMicro(keys []coldKey) (ownerNs, getNs, putUs float64) {
	if len(keys) == 0 {
		return 0, 0, 0
	}
	ring := cluster.NewRing([]string{"http://127.0.0.1:18081", "http://127.0.0.1:18082", "http://127.0.0.1:18083"}, 0)
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, k := range keys {
			_ = ring.Owner(string(k.body))
		}
	}
	ownerNs = float64(time.Since(start).Nanoseconds()) / float64(reps*len(keys))

	st := cluster.NewMemStore(0)
	start = time.Now()
	for _, k := range keys {
		st.Put(cluster.Entry{Key: string(k.body), Plan: k.plan})
	}
	putUs = us(time.Since(start)) / float64(len(keys))
	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, k := range keys {
			_, _ = st.Get(string(k.body))
		}
	}
	getNs = float64(time.Since(start).Nanoseconds()) / float64(reps*len(keys))
	return ownerNs, getNs, putUs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
