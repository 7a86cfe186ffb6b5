package thermosc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the concurrent planning service: an http.Handler exposing
// the solvers over JSON.
//
//	POST /v1/maximize  platform spec + Tmax + method → serialized plan
//	POST /v1/simulate  platform spec + plan → transient trace + verified peak
//	GET  /healthz      liveness + drain state
//	GET  /v1/stats     cache/latency/in-flight counters
//
// Maximize requests are canonicalized (servereq.go), deduplicated by a
// singleflight layer, and answered from an LRU plan cache. Plans are
// deterministic functions of the canonical request — the solvers are
// bit-reproducible at any worker count and served plans carry
// solver_elapsed_s = 0 — so a cache or singleflight hit is byte-identical
// to a cold solve. Platforms are cached too: all in-flight solves against
// the same platform share one sim.Engine operator pool.
type Server struct {
	cfg       ServerConfig
	mux       *http.ServeMux
	stats     *serverStats
	plans     *lruCache[cachedPlan]
	platforms *lruCache[*Platform]
	flights   *flightGroup
	admit     *admission
	brk       *breaker
	// cluster is the fleet layer (servecluster.go): consistent-hash
	// routing, the replicated plan store, forwarding, and gossip. Nil in
	// single-process mode.
	cluster *serveCluster

	// work counts the in-flight requests, sampled audits and stale-plan
	// refreshes; Shutdown waits for it to drain. A request adds to it
	// under mu only while the server is open. An audit or a refresh adds
	// while the request or refresh that starts it still holds a count, so
	// no add from zero can race Shutdown's Wait.
	mu     sync.Mutex
	closed bool
	work   sync.WaitGroup

	// solves counts cold solves for the every-Nth audit sampling
	// (ServerConfig.AuditEvery).
	solves atomic.Uint64

	// solveHook, when set, runs inside the flight leader just before the
	// solve. Tests use it to inject latency and panics (chaos testing);
	// nil in production.
	solveHook func(Method)
}

// ServerConfig tunes a Server; zero values select the defaults.
type ServerConfig struct {
	// PlanCacheSize caps the LRU plan cache (default 256 plans). In
	// cluster mode complete plans live in the replicated store (see
	// ClusterConfig.StoreCap), so the LRU holds only degraded plans.
	PlanCacheSize int
	// PlatformCacheSize caps the platform/engine cache (default 32).
	PlatformCacheSize int
	// MaxCores rejects larger platform requests with 400 (default 256) —
	// solve cost grows steeply with the core count, so the cap is the
	// service's overload valve. The default matches the largest platform
	// the sparse thermal backend solves inside the serve deadline budget
	// (see docs/SPARSE.md).
	MaxCores int
	// DefaultTimeout bounds solves whose request carries no timeout_s
	// (default 30 s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout_s (default 2 min).
	MaxTimeout time.Duration
	// AuditEvery, when > 0, audits every Nth cold solve asynchronously
	// with the independent verification oracle (Platform.Audit): the
	// request is answered immediately and a background goroutine
	// re-derives the plan's peak and invariants from first principles,
	// feeding the verify_pass/verify_fail counters in /v1/stats.
	// 0 (the default) disables auditing. The audit verdicts also feed
	// the circuit breaker (serveresilience.go).
	AuditEvery int

	// SolveConcurrency caps solves running at once (default GOMAXPROCS);
	// SolveQueue caps solves waiting for a slot (default 256). A
	// simulation takes a slot like a solve. A request is shed with 429 +
	// Retry-After when the queue is full or the estimated wait for a slot
	// exceeds its own deadline.
	SolveConcurrency int
	SolveQueue       int

	// Cluster, when non-nil, joins this server to a replica fleet:
	// canonical request keys are placed on a consistent-hash ring, plans
	// replicate through a shared store with gossip anti-entropy, and
	// requests for keys owned elsewhere are proxied to their owner (see
	// docs/CLUSTER.md). Nil means single-process serving, byte-identical
	// to previous releases. An invalid cluster config (no Self) panics at
	// construction — a daemon must fail fast on a bad fleet topology, not
	// serve with silently-disabled replication.
	Cluster *ClusterConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.PlatformCacheSize == 0 {
		c.PlatformCacheSize = 32
	}
	if c.MaxCores == 0 {
		c.MaxCores = 256
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.SolveConcurrency == 0 {
		c.SolveConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.SolveQueue == 0 {
		c.SolveQueue = 256
	}
	return c
}

func (c ServerConfig) limits() serveLimits {
	return serveLimits{maxCores: c.MaxCores, maxVoltages: 64}
}

// NewServer builds a planning service with the given configuration.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
		stats:   newServerStats(),
		flights: newFlightGroup(),
	}
	s.plans = newLRUCache[cachedPlan](s.cfg.PlanCacheSize)
	s.platforms = newLRUCache[*Platform](s.cfg.PlatformCacheSize)
	s.admit = newAdmission(s.cfg.SolveConcurrency, s.cfg.SolveQueue)
	s.brk = newBreaker(breakerWindow, breakerThreshold, breakerMinSamples, breakerCooloff)
	if cfg.Cluster != nil {
		c, err := newServeCluster(*cfg.Cluster)
		if err != nil {
			panic(fmt.Sprintf("thermosc.NewServer: %v", err))
		}
		s.cluster = c
		c.startLoops()
	}
	s.mux.HandleFunc("POST /v1/maximize", s.handleMaximize)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterStatus)
	s.mux.HandleFunc("POST /v1/cluster/sync", s.handleClusterSync)
	s.mux.HandleFunc("POST /v1/cluster/drain", s.handleClusterDrain)
	return s
}

// ServeHTTP implements http.Handler. It is the per-request panic
// boundary: a panicking handler (a solver bug, or injected chaos)
// answers 500 and increments panics_recovered instead of killing the
// daemon. The handler's own deferred accounting (work count, in-flight
// gauge, latency observation) runs during the unwind, so the drain and
// stats stay consistent across panics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.stats.panicRecovered()
			writeJSON(w, http.StatusInternalServerError, errorResponse{
				Error: fmt.Sprintf("internal panic: %v", rec),
				Code:  "panic",
			})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() ServerStats {
	st := s.stats.snapshot(s.plans.Len(), s.cfg.PlanCacheSize)
	st.Resilience.QueueDepth = s.admit.depth()
	st.Resilience.BreakerState, st.Resilience.BreakerTrips = s.brk.status()
	st.Resilience.Draining = s.drainState()
	if s.cluster != nil {
		st.Cluster = s.cluster.statsSnapshot()
	}
	return st
}

// Shutdown stops admitting new solve requests (they get 503) and blocks
// until every in-flight request has drained or ctx expires. Safe to call
// more than once. It does not close listeners — pair it with
// http.Server.Shutdown, which drains connections while this drains the
// solver work.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.cluster != nil {
		s.cluster.stopLoops() // no new gossip or probes while draining
	}
	done := make(chan struct{})
	go func() {
		s.work.Wait() // requests, audits and refreshes
		close(done)
	}()
	select {
	case <-done:
		if s.cluster != nil {
			return s.cluster.store.Close() // drained: safe to close the store's log
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter admits one request unless the server is draining; an admitted
// request calls s.work.Done when it is answered.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.work.Add(1)
	return true
}

// maxBodyBytes bounds request bodies; a maximize/simulate request is a
// few KB, so 1 MiB is generous headroom for big plans.
const maxBodyBytes = 1 << 20

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, badRequestf("reading body: %v", err)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class: bad_request, infeasible,
	// shed, deadline, degraded, panic, internal.
	Code string `json:"code,omitempty"`
	// RetryAfterS mirrors the Retry-After header on shed (429) replies.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// writeError maps an error to its HTTP status and machine-readable
// code: requestErrors keep their 4xx (code bad_request); admission
// sheds become 429 with Retry-After; typed ErrInfeasible refusals 422
// (the platform cannot meet the threshold — retrying is futile);
// deadline/cancellation aborts 504; a flight whose leader panicked 500
// with code panic; everything else 500 internal.
func writeError(w http.ResponseWriter, err error) {
	var reqErr *requestError
	var shed *shedError
	switch {
	case errors.As(err, &reqErr):
		writeJSON(w, reqErr.status, errorResponse{Error: reqErr.msg, Code: "bad_request"})
	case errors.As(err, &shed):
		secs := int(math.Ceil(shed.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Code: "shed", RetryAfterS: secs})
	case errors.Is(err, ErrInfeasible):
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error(), Code: "infeasible"})
	case errors.Is(err, ErrDegraded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error(), Code: "degraded"})
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: fmt.Sprintf("solve aborted: %v", err), Code: "deadline"})
	case errors.Is(err, errFlightPanic):
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Code: "panic"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Code: "internal"})
	}
}

// timeoutFor resolves a request's solve deadline from its timeout_s.
func (s *Server) timeoutFor(timeoutS float64) time.Duration {
	if timeoutS <= 0 {
		return s.cfg.DefaultTimeout
	}
	// Cap in float space: a huge timeout_s (say 1e300) would overflow the
	// int64 nanosecond conversion into a negative Duration and, before
	// this guard, fall through as a 1ns deadline.
	if timeoutS >= s.cfg.MaxTimeout.Seconds() {
		return s.cfg.MaxTimeout
	}
	d := time.Duration(timeoutS * float64(time.Second))
	if d <= 0 { // sub-nanosecond timeouts round to an immediate deadline
		d = time.Nanosecond
	}
	return d
}

// platformFor returns the shared Platform for a canonical spec, building
// it at most once per cache residency. Sharing the Platform is what
// shares its sim.Engine across all in-flight solves on that platform.
func (s *Server) platformFor(platKey string, spec PlatformSpec) (*Platform, error) {
	return s.platforms.GetOrCreate(platKey, spec.platform)
}

func (s *Server) handleMaximize(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.work.Done()
	start := time.Now()
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	failed := true
	defer func() { s.stats.observe("maximize", time.Since(start), failed) }()

	body, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	req, planKey, platKey, err := parseMaximizeRequest(body, s.cfg.limits())
	if err != nil {
		writeError(w, err)
		return
	}

	// Layer 1: the plan cache that holds the key (see lookupPlan).
	if ent, src, ok := s.lookupPlan(planKey); ok {
		failed = false
		s.serveCachedPlan(w, start, planKey, platKey, req, ent, src)
		return
	}
	s.stats.cacheMiss()

	// Layer 2: the forwarding proxy — keys owned by another replica are
	// answered by their owner so the fleet solves each key once. The
	// owner comes from the HEALTHY ring view: suspect/dead owners are
	// skipped up front (their keys fall to the next healthy successor)
	// instead of being rediscovered via a timed-out forward on every
	// request. A request that already hopped once is always served here
	// (never re-forwarded), and an unreachable owner still falls through
	// to the local solve: the ring re-routes instead of failing the
	// request.
	if s.cluster != nil && r.Header.Get(clusterHopHeader) == "" {
		if owner := s.cluster.healthyOwner(planKey); owner != s.cluster.cfg.Self {
			if s.forwardMaximize(w, r, body, owner, planKey, start, &failed) {
				return
			}
		}
	}

	// Layer 3: solve locally.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutS))
	defer cancel()
	ent, shared, err := s.flights.Do(ctx, planKey, func() (cachedPlan, error) {
		return s.solvePlan(ctx, planKey, platKey, req, false)
	})
	if shared {
		s.stats.sfShared()
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if ent.degraded {
		s.stats.degradedServed()
	}
	failed = false
	s.clusterServed(serveSourceLocal)
	writeJSON(w, http.StatusOK, MaximizeResponse{
		Plan:           ent.bytes,
		Shared:         shared,
		Degraded:       ent.degraded,
		DegradedReason: ent.reason,
		Key:            keyDigest(planKey),
		Source:         s.sourceLabel(serveSourceLocal),
		ElapsedS:       time.Since(start).Seconds(),
	})
}

// serveCachedPlan answers a maximize request from a plan cache (the
// local LRU or the replicated store), running the shared
// stale-while-revalidate and accounting machinery. The caller has
// already cleared its failed flag. A degraded hit is served stale while
// a background refresh re-solves it: a complete solve may well succeed
// now that the original deadline pressure is gone. Complete plans never
// go stale — they are bit-reproducible, so age cannot make them wrong.
func (s *Server) serveCachedPlan(w http.ResponseWriter, start time.Time, planKey, platKey string, req MaximizeRequest, ent cachedPlan, source string) {
	if ent.degraded {
		s.stats.staleServed()
		s.stats.degradedServed()
		s.refreshAsync(planKey, platKey, req)
	}
	s.stats.cacheHit()
	s.clusterServed(source)
	writeJSON(w, http.StatusOK, MaximizeResponse{
		Plan:           ent.bytes,
		Cached:         true,
		Stale:          ent.degraded,
		Degraded:       ent.degraded,
		DegradedReason: ent.reason,
		Key:            keyDigest(planKey),
		Source:         s.sourceLabel(source),
		ElapsedS:       time.Since(start).Seconds(),
	})
}

// solvePlan is the flight-leader body: admission control, breaker
// routing, the resilient solve, canonicalization, caching, and sampled
// audit dispatch. requireComplete is set by background refreshes — a
// degraded result is then discarded with ErrDegraded instead of
// re-caching another stale entry.
func (s *Server) solvePlan(ctx context.Context, planKey, platKey string, req MaximizeRequest, requireComplete bool) (cachedPlan, error) {
	plat, err := s.platformFor(platKey, req.Platform)
	if err != nil {
		return cachedPlan{}, badRequestf("building platform: %v", err)
	}
	if err := s.admit.acquire(ctx); err != nil {
		s.stats.shed()
		return cachedPlan{}, err
	}
	solveStart := time.Now()
	defer func() { s.admit.release(time.Since(solveStart)) }()
	if s.solveHook != nil {
		s.solveHook(req.Method)
	}
	var plan *Plan
	if s.brk.allowFull() {
		plan, err = plat.MaximizeResilient(ctx, req.Method, req.TmaxC)
	} else {
		// Breaker open: the audit failure rate says full solves cannot be
		// trusted right now, so only the oracle-checked constant floor is
		// served until the cooloff elapses.
		plan, err = plat.SafeFloorPlan(req.TmaxC)
		if err == nil {
			plan.DegradedReason = "breaker-open"
		}
	}
	if err != nil {
		return cachedPlan{}, err
	}
	if requireComplete && plan.Degraded {
		return cachedPlan{}, fmt.Errorf("%w: refresh produced a %s plan", ErrDegraded, plan.DegradedReason)
	}
	// Canonicalize the served plan: zero the wall-clock timing so the
	// bytes are a pure function of the request (cache hits and golden
	// replays compare byte-identical).
	plan.Elapsed = 0
	b, err := json.Marshal(plan)
	if err != nil {
		return cachedPlan{}, err
	}
	ent := cachedPlan{bytes: b, degraded: plan.Degraded, reason: plan.DegradedReason}
	s.storePlan(planKey, ent)
	// Only complete plans enter the audit sampling: degraded plans were
	// already oracle-checked synchronously by the fallback chain.
	if !plan.Degraded && s.cfg.AuditEvery > 0 && s.solves.Add(1)%uint64(s.cfg.AuditEvery) == 0 {
		s.work.Add(1) // the request or refresh solving this plan holds a count
		go s.runAudit(plat, plan, req.TmaxC)
	}
	return ent, nil
}

// refreshAsync starts a background re-solve of a stale cache entry
// under the server's own deadline (not the triggering request's, which
// is about to return the stale bytes). The refresh joins the normal
// singleflight, so concurrent stale hits share one re-solve, and it
// demands a complete plan — a refresh that would only produce another
// degraded entry is dropped.
func (s *Server) refreshAsync(planKey, platKey string, req MaximizeRequest) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.work.Add(1) // the stale hit's request holds a count
	s.mu.Unlock()
	go func() {
		defer s.work.Done()
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panicRecovered()
				s.stats.refreshDone(false)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
		defer cancel()
		ent, _, err := s.flights.Do(ctx, planKey, func() (cachedPlan, error) {
			return s.solvePlan(ctx, planKey, platKey, req, true)
		})
		s.stats.refreshDone(err == nil && !ent.degraded)
	}()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is shutting down"})
		return
	}
	defer s.work.Done()
	start := time.Now()
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	failed := true
	defer func() { s.stats.observe("simulate", time.Since(start), failed) }()

	body, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	spec, plan, periods, samples, platKey, err := parseSimulateRequest(body, s.cfg.limits())
	if err != nil {
		writeError(w, err)
		return
	}
	plat, err := s.platformFor(platKey, spec)
	if err != nil {
		writeError(w, badRequestf("building platform: %v", err))
		return
	}
	// A long trace costs as much CPU as a solve, so a simulation takes a
	// solve slot too. It cannot be cancelled once running; the deadline
	// only bounds its wait for the slot.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.admit.acquire(ctx); err != nil {
		s.stats.shed()
		writeError(w, err)
		return
	}
	simStart := time.Now()
	defer func() { s.admit.release(time.Since(simStart)) }()
	resp, err := simulate(plat, plan, periods, samples)
	if err != nil {
		writeError(w, err)
		return
	}
	failed = false
	resp.ElapsedS = time.Since(start).Seconds()
	writeJSON(w, http.StatusOK, resp)
}

// simulate traces the plan on plat from ambient and verifies its stable
// peak: the body of a /v1/simulate reply, less its timing.
func simulate(plat *Platform, plan *Plan, periods, samples int) (SimulateResponse, error) {
	trace, err := plat.Trace(plan, periods, samples)
	if err != nil {
		return SimulateResponse{}, badRequestf("simulating plan: %v", err)
	}
	peak, err := plat.VerifyPeakC(plan, 32)
	if err != nil {
		return SimulateResponse{}, badRequestf("verifying plan: %v", err)
	}
	return SimulateResponse{
		TimeS:         trace.TimeS,
		CoreTempC:     trace.CoreTempC,
		MaxC:          trace.MaxC(),
		VerifiedPeakC: peak,
	}, nil
}

// runAudit re-checks one served plan with the independent oracle and
// records the verdict. It runs on its own goroutine — a failed audit
// cannot delay or fail the request that produced the plan; it surfaces
// through the verify_fail counter (and last_failure detail) in /v1/stats,
// where monitoring alerts on it.
// Audit verdicts also feed the circuit breaker: a failure streak trips
// the service to fallback-only planning (see breaker).
func (s *Server) runAudit(plat *Platform, plan *Plan, tmaxC float64) {
	defer s.work.Done()
	defer func() {
		if rec := recover(); rec != nil { // the oracle must never kill the daemon
			s.stats.panicRecovered()
			s.stats.auditResult(false, fmt.Sprintf("audit panicked: %v", rec))
			s.brk.record(false)
		}
	}()
	rep, err := plat.Audit(plan, tmaxC)
	ok := false
	switch {
	case err != nil:
		s.stats.auditResult(false, fmt.Sprintf("audit error: %v", err))
	case !rep.OK:
		s.stats.auditResult(false, rep.String())
	default:
		s.stats.auditResult(true, "")
		ok = true
	}
	s.brk.record(ok)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Shutdown drain and cluster drain both report here: peer failure
	// detectors read /healthz, so flipping it is what makes the rest of
	// the fleet route around this replica.
	draining := s.drainState()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":   state,
		"uptime_s": time.Since(s.stats.start).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
