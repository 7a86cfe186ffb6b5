package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"thermosc/internal/floorplan"
)

// This file is the fleet load generator: an open-loop request driver
// for a thermosc-serve fleet. The workload is seed-pinned — the arrival
// schedule, the per-request platform/threshold/method pick, the target
// replica, and the per-request deadline all come from one seeded RNG —
// so a soak failure replays exactly. The popularity of the request
// catalog is zipf-skewed, which is what makes the cache/replication
// layers earn their keep: a handful of hot keys dominate while a long
// tail keeps producing cold solves.

// Arrival curves.
const (
	// CurvePoisson draws exponential interarrival gaps at RateHz — the
	// classical open-loop arrival process.
	CurvePoisson = "poisson"
	// CurveRamp sweeps the arrival rate linearly from 0.5×RateHz to
	// 1.5×RateHz over the run (mean RateHz) — a deterministic rush-hour
	// shape that exercises admission control at the tail.
	CurveRamp = "ramp"
)

// LoadConfig describes one load-generation run.
type LoadConfig struct {
	// Targets are the replica base URLs requests are spread across
	// (uniformly, seed-pinned). Required.
	Targets []string `json:"targets"`
	// Requests is the total request count (default 1000).
	Requests int `json:"requests"`
	// RateHz is the mean arrival rate (default 200/s).
	RateHz float64 `json:"rate_hz"`
	// Curve is the arrival shape: CurvePoisson (default) or CurveRamp.
	Curve string `json:"curve"`
	// ZipfS/ZipfV shape the catalog popularity skew (defaults 1.2 / 1;
	// rank 0 — the smallest platform — is the most popular key).
	ZipfS float64 `json:"zipf_s"`
	ZipfV float64 `json:"zipf_v"`
	// Seed pins the whole workload (default 1).
	Seed int64 `json:"seed"`
	// MaxCores filters the floorplan catalog (default 16, which keeps
	// every cold solve in the low milliseconds).
	MaxCores int `json:"max_cores"`
	// TmaxC are the thermal thresholds crossed with the catalog
	// (default 60, 70, 80 °C).
	TmaxC []float64 `json:"tmax_c"`
	// Methods are the solver methods crossed with the catalog (default
	// AO and LNS).
	Methods []string `json:"methods"`
	// PaperLevels is the voltage level set for every platform (default
	// 3 — small level sets keep solves fast).
	PaperLevels int `json:"paper_levels"`
	// TimeoutMinS/TimeoutMaxS bound the per-request deadline drawn
	// uniformly for each request (defaults 1 s / 10 s); the deadline is
	// sent as the request's timeout_s AND enforced client-side.
	TimeoutMinS float64 `json:"timeout_min_s"`
	TimeoutMaxS float64 `json:"timeout_max_s"`
	// Concurrency bounds in-flight requests (default 256). An open-loop
	// generator never waits for a response to send the next request, but
	// it must not exhaust file descriptors; when the bound is hit the
	// dispatcher blocks and the delay shows up as schedule lag.
	Concurrency int `json:"concurrency"`
	// Phases, when non-empty, splits the report's accounting by PLANNED
	// send time: a request belongs to the last phase whose Start is at
	// or before its scheduled At. Used with PhasesFor(churn schedule) to
	// attribute errors and latency to the fleet state that produced
	// them. A phase starting after 0 leaves earlier requests in an
	// implicit "pre" phase.
	Phases []LoadPhase `json:"phases,omitempty"`

	// Client serves the requests (default: a pooled client sized for
	// Concurrency). Tests inject their own.
	Client *http.Client `json:"-"`
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.RateHz <= 0 {
		c.RateHz = 200
	}
	if c.Curve == "" {
		c.Curve = CurvePoisson
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxCores <= 0 {
		c.MaxCores = 16
	}
	if len(c.TmaxC) == 0 {
		c.TmaxC = []float64{60, 70, 80}
	}
	if len(c.Methods) == 0 {
		c.Methods = []string{"AO", "LNS"}
	}
	if c.PaperLevels <= 0 {
		c.PaperLevels = 3
	}
	if c.TimeoutMinS <= 0 {
		c.TimeoutMinS = 1
	}
	if c.TimeoutMaxS < c.TimeoutMinS {
		c.TimeoutMaxS = c.TimeoutMinS + 9
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 256
	}
	return c
}

// LoadPhase names a half-open window [Start, next phase's Start) of the
// run for split reporting.
type LoadPhase struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
}

// LoadRequest is one generated request: when to send it, where, and
// what.
type LoadRequest struct {
	// At is the planned send offset from the run's start.
	At time.Duration
	// Target is the replica base URL.
	Target string
	// Body is the /v1/maximize JSON body.
	Body []byte
	// Platform names the catalog platform (for per-platform reporting).
	Platform string
	// Rank is the popularity rank of the catalog item this request drew
	// (0 = hottest).
	Rank int
}

// wire-format request body (mirrors the server's schema without
// importing it — internal/cluster must stay importable by the root
// package).
type wirePlatform struct {
	Rows        int       `json:"rows"`
	Cols        int       `json:"cols"`
	PaperLevels int       `json:"paper_levels,omitempty"`
	StackLayers int       `json:"stack_layers,omitempty"`
	CoreScales  []float64 `json:"core_scales,omitempty"`
	CoreEdgeM   float64   `json:"core_edge_m,omitempty"`
}

type wireMaximize struct {
	Platform wirePlatform `json:"platform"`
	TmaxC    float64      `json:"tmax_c"`
	Method   string       `json:"method"`
	TimeoutS float64      `json:"timeout_s,omitempty"`
}

// catalogItem is one distinct canonical request the workload can draw.
type catalogItem struct {
	platform wirePlatform
	name     string
	tmaxC    float64
	method   string
}

// buildCatalog crosses the floorplan catalog (filtered to MaxCores)
// with the configured thresholds and methods, in deterministic order:
// catalog order × tmax × method, so rank 0 is the smallest platform at
// the lowest threshold with the first method.
func buildCatalog(cfg LoadConfig) []catalogItem {
	var items []catalogItem
	for _, g := range floorplan.Catalog() {
		if g.NumCores() > cfg.MaxCores {
			continue
		}
		wp := wirePlatform{
			Rows:        g.Rows,
			Cols:        g.Cols,
			PaperLevels: cfg.PaperLevels,
			CoreEdgeM:   g.CoreEdge,
		}
		if g.Layers > 1 {
			wp.StackLayers = g.Layers
		}
		if len(g.Scales) > 0 {
			wp.CoreScales = g.Scales
		}
		for _, tmax := range cfg.TmaxC {
			for _, m := range cfg.Methods {
				items = append(items, catalogItem{platform: wp, name: g.Name, tmaxC: tmax, method: m})
			}
		}
	}
	return items
}

// Schedule returns the planned arrival offsets for the configured
// curve: len == Requests, ascending, seed-pinned.
func (c LoadConfig) Schedule() []time.Duration {
	cfg := c.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]time.Duration, cfg.Requests)
	var t float64 // seconds
	for i := range out {
		rate := cfg.RateHz
		if cfg.Curve == CurveRamp {
			// Linear sweep 0.5×→1.5× by request index (mean RateHz).
			frac := 0.5
			if cfg.Requests > 1 {
				frac = float64(i) / float64(cfg.Requests-1)
			}
			rate = cfg.RateHz * (0.5 + frac)
		}
		gap := 1 / rate
		if cfg.Curve == CurvePoisson {
			gap = rng.ExpFloat64() / rate
		}
		t += gap
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// Workload generates the full seed-pinned request sequence.
func (c LoadConfig) Workload() ([]LoadRequest, error) {
	cfg := c.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("cluster: load config has no targets")
	}
	items := buildCatalog(cfg)
	if len(items) == 0 {
		return nil, fmt.Errorf("cluster: catalog is empty (max_cores %d filters everything)", cfg.MaxCores)
	}
	schedule := cfg.Schedule()
	// A separate RNG stream for the picks: the schedule must not shift
	// when the pick logic changes, and vice versa.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var zipf *rand.Zipf
	if len(items) > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(len(items)-1))
	}
	reqs := make([]LoadRequest, cfg.Requests)
	for i := range reqs {
		rank := 0
		if zipf != nil {
			rank = int(zipf.Uint64())
		}
		item := items[rank]
		timeout := cfg.TimeoutMinS + rng.Float64()*(cfg.TimeoutMaxS-cfg.TimeoutMinS)
		body, err := json.Marshal(wireMaximize{
			Platform: item.platform,
			TmaxC:    item.tmaxC,
			Method:   item.method,
			TimeoutS: timeout,
		})
		if err != nil {
			return nil, err
		}
		reqs[i] = LoadRequest{
			At:       schedule[i],
			Target:   cfg.Targets[rng.Intn(len(cfg.Targets))],
			Body:     body,
			Platform: item.name,
			Rank:     rank,
		}
	}
	return reqs, nil
}

// LoadReport is the run's result artifact (JSON-stable: the soak CI
// job uploads it).
type LoadReport struct {
	// Exact accounting: every generated request lands in exactly one of
	// these four buckets, and their sum equals Requests.
	Requests   int `json:"requests"`
	Served     int `json:"served"`     // HTTP 200
	Infeasible int `json:"infeasible"` // HTTP 422 (no feasible plan)
	Shed       int `json:"shed"`       // HTTP 429 (admission control)
	Errors     int `json:"errors"`     // transport failures + any other status

	ByStatus map[string]int `json:"by_status"`
	ByTarget map[string]int `json:"by_target"`
	// BySource classifies served responses by the fleet layer that
	// answered (the response's source field; "" single-process).
	BySource map[string]int `json:"by_source,omitempty"`

	// Cache behavior over served responses.
	CacheHits int     `json:"cache_hits"`
	HitRatio  float64 `json:"hit_ratio"`
	Degraded  int     `json:"degraded"`
	Stale     int     `json:"stale"`

	// Latency over ALL completed requests (seconds).
	LatencyP50S float64 `json:"latency_p50_s"`
	LatencyP95S float64 `json:"latency_p95_s"`
	LatencyP99S float64 `json:"latency_p99_s"`
	LatencyMaxS float64 `json:"latency_max_s"`

	// PlanMismatches lists canonical keys that returned two different
	// complete plans — a replication-soundness violation (degraded plans
	// are deadline-dependent and excluded). Must be empty.
	PlanMismatches []string `json:"plan_mismatches,omitempty"`
	// DistinctKeys counts distinct canonical keys observed in served
	// responses.
	DistinctKeys int `json:"distinct_keys"`

	// MaxScheduleLagS is the worst planned-vs-actual send-time gap — an
	// open-loop health signal (a saturated Concurrency bound or a slow
	// dispatcher shows up here, not in latency).
	MaxScheduleLagS float64 `json:"max_schedule_lag_s"`
	ElapsedS        float64 `json:"elapsed_s"`

	// Phases is the per-phase split of the same accounting when
	// LoadConfig.Phases was set (phase sums equal the run totals).
	Phases []PhaseReport `json:"phases,omitempty"`
}

// PhaseReport is one phase's slice of the accounting: requests are
// attributed by PLANNED send time, so a churn run shows exactly which
// fleet state each error belongs to.
type PhaseReport struct {
	Name       string  `json:"name"`
	StartS     float64 `json:"start_s"`
	Requests   int     `json:"requests"`
	Served     int     `json:"served"`
	Infeasible int     `json:"infeasible"`
	Shed       int     `json:"shed"`
	Errors     int     `json:"errors"`

	LatencyP50S float64 `json:"latency_p50_s"`
	LatencyP99S float64 `json:"latency_p99_s"`
	LatencyMaxS float64 `json:"latency_max_s"`
}

// loadResponse is the subset of the serve response the generator
// inspects (lenient decode: the generator must not break when the
// server grows fields).
type loadResponse struct {
	Plan     json.RawMessage `json:"plan"`
	Cached   bool            `json:"cached"`
	Degraded bool            `json:"degraded"`
	Stale    bool            `json:"stale"`
	Key      string          `json:"key"`
	Source   string          `json:"source"`
}

type loadOutcome struct {
	status   int // 0 = transport error
	latency  time.Duration
	target   string
	lag      time.Duration
	resp     loadResponse
	complete bool // 200 with a decodable body
}

// RunLoad executes the configured workload and aggregates the report.
// The context cancels the run early (requests already in flight finish;
// unsent requests are counted as errors).
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	reqs, err := cfg.Workload()
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency,
				MaxIdleConnsPerHost: cfg.Concurrency,
				IdleConnTimeout:     30 * time.Second,
			},
		}
	}

	outcomes := make([]loadOutcome, len(reqs))
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
dispatch:
	for i := range reqs {
		// Open-loop pacing: sleep until the planned send time, then fire
		// regardless of how many requests are still in flight (up to the
		// fd-safety bound).
		wait := reqs[i].At - time.Since(start)
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = fire(ctx, client, reqs[i], start)
		}(i)
	}
	wg.Wait()
	report := aggregate(reqs, outcomes, cfg.Phases)
	report.ElapsedS = time.Since(start).Seconds()
	return report, nil
}

func fire(ctx context.Context, client *http.Client, lr LoadRequest, start time.Time) loadOutcome {
	out := loadOutcome{target: lr.Target, lag: time.Since(start) - lr.At}
	var timeoutS float64
	var probe struct {
		TimeoutS float64 `json:"timeout_s"`
	}
	if json.Unmarshal(lr.Body, &probe) == nil {
		timeoutS = probe.TimeoutS
	}
	if timeoutS > 0 {
		// Client-side deadline = request deadline + grace for transport
		// and queuing.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration((timeoutS+30)*float64(time.Second)))
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, lr.Target+"/v1/maximize", bytes.NewReader(lr.Body))
	if err != nil {
		return out
	}
	hreq.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	hresp, err := client.Do(hreq)
	out.latency = time.Since(sent)
	if err != nil {
		return out
	}
	defer hresp.Body.Close()
	out.status = hresp.StatusCode
	var lresp loadResponse
	if hresp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(hresp.Body).Decode(&lresp); err == nil {
			out.resp = lresp
			out.complete = true
		} else {
			out.status = 0 // undecodable 200 is a transport-class error
		}
	}
	out.latency = time.Since(sent)
	return out
}

// PlanHash is the fingerprint the load generator compares served plans
// by: SHA-256 of the plan bytes, truncated to 16 hex characters.
func PlanHash(plan []byte) string {
	sum := sha256.Sum256(plan)
	return hex.EncodeToString(sum[:8])
}

func aggregate(reqs []LoadRequest, outcomes []loadOutcome, phases []LoadPhase) *LoadReport {
	r := &LoadReport{
		Requests: len(reqs),
		ByStatus: make(map[string]int),
		ByTarget: make(map[string]int),
		BySource: make(map[string]int),
	}
	split := newPhaseSplit(phases)
	planHash := make(map[string]string)
	mismatched := make(map[string]bool)
	var lat []float64
	for i := range outcomes {
		o := &outcomes[i]
		ph := split.phaseFor(reqs[i].At)
		r.ByTarget[o.target]++
		if o.latency > 0 {
			lat = append(lat, o.latency.Seconds())
			if ph != nil {
				ph.lat = append(ph.lat, o.latency.Seconds())
			}
		}
		if lag := o.lag.Seconds(); lag > r.MaxScheduleLagS {
			r.MaxScheduleLagS = lag
		}
		if ph != nil {
			ph.rep.Requests++
			switch {
			case o.status == http.StatusOK && o.complete:
				ph.rep.Served++
			case o.status == http.StatusUnprocessableEntity:
				ph.rep.Infeasible++
			case o.status == http.StatusTooManyRequests:
				ph.rep.Shed++
			default:
				ph.rep.Errors++
			}
		}
		switch {
		case o.status == http.StatusOK && o.complete:
			r.Served++
			r.ByStatus["200"]++
			if o.resp.Source != "" {
				r.BySource[o.resp.Source]++
			}
			if o.resp.Cached {
				r.CacheHits++
			}
			if o.resp.Degraded {
				r.Degraded++
			} else if o.resp.Key != "" {
				// Complete plans must be byte-identical per canonical key,
				// no matter which replica answered.
				h := PlanHash(o.resp.Plan)
				if prev, ok := planHash[o.resp.Key]; ok && prev != h {
					mismatched[o.resp.Key] = true
				} else {
					planHash[o.resp.Key] = h
				}
			}
			if o.resp.Stale {
				r.Stale++
			}
		case o.status == http.StatusUnprocessableEntity:
			r.Infeasible++
			r.ByStatus["422"]++
		case o.status == http.StatusTooManyRequests:
			r.Shed++
			r.ByStatus["429"]++
		case o.status == 0:
			r.Errors++
			r.ByStatus["transport_error"]++
		default:
			r.Errors++
			r.ByStatus[fmt.Sprintf("%d", o.status)]++
		}
	}
	if r.Served > 0 {
		r.HitRatio = float64(r.CacheHits) / float64(r.Served)
	}
	r.DistinctKeys = len(planHash) // degraded-only keys excluded by design
	for k := range mismatched {
		r.PlanMismatches = append(r.PlanMismatches, k)
	}
	sort.Strings(r.PlanMismatches)
	if len(lat) > 0 {
		sort.Float64s(lat)
		r.LatencyP50S = percentile(lat, 0.50)
		r.LatencyP95S = percentile(lat, 0.95)
		r.LatencyP99S = percentile(lat, 0.99)
		r.LatencyMaxS = lat[len(lat)-1]
	}
	if len(r.BySource) == 0 {
		r.BySource = nil
	}
	r.Phases = split.reports()
	return r
}

// phaseSplit attributes requests to phases by planned send time. An
// implicit "pre" phase at Start 0 catches requests scheduled before the
// first configured phase; phases are matched by binary search over the
// sorted starts.
type phaseSplit struct {
	starts  []time.Duration
	buckets []*phaseBucket
}

type phaseBucket struct {
	rep PhaseReport
	lat []float64
}

func newPhaseSplit(phases []LoadPhase) *phaseSplit {
	if len(phases) == 0 {
		return &phaseSplit{}
	}
	sorted := append([]LoadPhase(nil), phases...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	if sorted[0].Start > 0 {
		sorted = append([]LoadPhase{{Name: "pre", Start: 0}}, sorted...)
	}
	s := &phaseSplit{}
	for _, p := range sorted {
		s.starts = append(s.starts, p.Start)
		s.buckets = append(s.buckets, &phaseBucket{rep: PhaseReport{Name: p.Name, StartS: p.Start.Seconds()}})
	}
	return s
}

func (s *phaseSplit) phaseFor(at time.Duration) *phaseBucket {
	if len(s.buckets) == 0 {
		return nil
	}
	// Last phase with Start <= at.
	i := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > at }) - 1
	if i < 0 {
		i = 0
	}
	return s.buckets[i]
}

func (s *phaseSplit) reports() []PhaseReport {
	if len(s.buckets) == 0 {
		return nil
	}
	out := make([]PhaseReport, len(s.buckets))
	for i, b := range s.buckets {
		if len(b.lat) > 0 {
			sort.Float64s(b.lat)
			b.rep.LatencyP50S = percentile(b.lat, 0.50)
			b.rep.LatencyP99S = percentile(b.lat, 0.99)
			b.rep.LatencyMaxS = b.lat[len(b.lat)-1]
		}
		out[i] = b.rep
	}
	return out
}

// percentile reads the p-quantile from a sorted sample with the
// standard nearest-rank rule, rank = ceil(p·n): the smallest value with
// at least a p-fraction of the sample at or below it. Clamps keep
// degenerate inputs (p<=0, p>1) in bounds.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
