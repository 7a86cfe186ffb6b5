package thermosc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the server's overload machinery: deadline-aware admission
// control in front of the solver pool, and a circuit breaker that trips
// the service to fallback-only planning when the async verification
// audits start failing. Both are deliberately simple — a counting
// semaphore with an EWMA wait estimate, and a fixed-window failure-rate
// breaker — because they sit on the request path of every cold solve.

// drainState reports whether this server is signalling "stop sending
// me new work": either Shutdown has begun, or the cluster drain
// endpoint (POST /v1/cluster/drain) took the replica out of rotation
// for a rolling restart. Both surface identically — 503 "draining" on
// /healthz (which load balancers and peer failure detectors read) and
// Draining in the /v1/stats resilience block — so operators and peers
// never need to distinguish why a replica is on its way out.
func (s *Server) drainState() bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return true
	}
	return s.cluster != nil && s.cluster.draining.Load()
}

// shedError is a typed admission refusal: the request was not solved
// because the service is saturated (queue full, or the estimated wait
// already exceeds the request's own deadline). It maps to 429 with a
// Retry-After hint, telling well-behaved clients when capacity is
// likely to exist again.
type shedError struct {
	reason     string
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("request shed: %s (retry after %v)", e.reason, e.retryAfter.Round(time.Second))
}

// admission is the bounded solver-pool gate. Concurrency caps the
// solves actually running; queueCap bounds the ones waiting for a slot.
// A request sheds instead of queueing when the queue is full OR when
// the EWMA-estimated wait for a slot exceeds the request's remaining
// deadline — queueing it would only burn a slot on a reply nobody is
// still waiting for.
type admission struct {
	sem      chan struct{}
	queueCap int
	waiting  atomic.Int64 // queued, not yet holding a slot

	mu   sync.Mutex
	avgS float64 // EWMA of recent solve durations, seconds (0 until the first solve)
}

func newAdmission(concurrency, queueCap int) *admission {
	if concurrency < 1 {
		concurrency = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	return &admission{sem: make(chan struct{}, concurrency), queueCap: queueCap}
}

// depth is the current queue depth (the /v1/stats gauge).
func (a *admission) depth() int64 { return a.waiting.Load() }

// estWaitS estimates how long a solve queued behind depth others would
// wait for a slot: depth × average solve time ÷ pool width. Zero until
// the first solve completes, so a cold server never sheds on estimate.
func (a *admission) estWaitS(depth int64) float64 {
	a.mu.Lock()
	avg := a.avgS
	a.mu.Unlock()
	return float64(depth) * avg / float64(cap(a.sem))
}

// retryAfter is the Retry-After hint attached to sheds: the estimated
// wait rounded UP to a whole second, floored at one. Retry-After is an
// integer-seconds header — truncating a sub-second estimate would tell
// well-behaved clients "retry after 0", i.e. hammer a saturated server
// immediately — and ceiling at the source keeps the header, the JSON
// retry_after_s, and the error text in agreement.
func (a *admission) retryAfter() time.Duration {
	secs := math.Ceil(a.estWaitS(a.waiting.Load()))
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// acquire blocks until a solve slot is free, the context expires, or
// the request is shed. A nil return means the caller holds a slot and
// must release() it.
func (a *admission) acquire(ctx context.Context) error {
	// A free slot is taken unconditionally — even a nearly-expired
	// deadline is the anytime chain's problem, not admission's: with no
	// wait there is nothing to shed against, and the solver will answer
	// with a degraded plan or the safe floor.
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	// Reserve the queue place before checking the cap: a separate check
	// and enqueue would let requests arriving together all pass the check
	// and overshoot queueCap.
	ahead := a.waiting.Add(1) - 1
	if ahead >= int64(a.queueCap) {
		a.waiting.Add(-1)
		return &shedError{reason: "solve queue is full", retryAfter: a.retryAfter()}
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := a.estWaitS(ahead); est > time.Until(dl).Seconds() {
			a.waiting.Add(-1)
			return &shedError{
				reason:     fmt.Sprintf("estimated queue wait %.2fs exceeds the request deadline", est),
				retryAfter: a.retryAfter(),
			}
		}
	}
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &shedError{reason: "deadline expired while queued for a solve slot", retryAfter: a.retryAfter()}
	}
}

// release frees the slot and folds the solve's duration into the EWMA
// the shed estimate runs on.
func (a *admission) release(d time.Duration) {
	<-a.sem
	s := d.Seconds()
	a.mu.Lock()
	if a.avgS == 0 {
		a.avgS = s
	} else {
		a.avgS = 0.8*a.avgS + 0.2*s
	}
	a.mu.Unlock()
}

// Circuit breaker states.
const (
	breakerClosed   = "closed"    // full solves trusted
	breakerOpen     = "open"      // fallback-only until the cooloff elapses
	breakerHalfOpen = "half-open" // one full solve probing; next audit verdict decides
)

// The server's breaker policy: it trips when at least breakerMinSamples
// of the last breakerWindow audit verdicts exist and at least
// breakerThreshold of them failed, and it holds open for breakerCooloff.
const (
	breakerWindow     = 20
	breakerThreshold  = 0.5
	breakerMinSamples = 8
	breakerCooloff    = 30 * time.Second
)

// breaker trips the service to fallback-only planning when the async
// verification audits say full solves can no longer be trusted: if the
// failure rate over a fixed window of audit verdicts crosses the
// threshold, every solve is answered with the oracle-checked constant
// safe floor until a cooloff elapses; then one full solve probes
// (half-open) and its audit verdict closes or re-opens the breaker.
//
// The breaker is fed ONLY by the sampled async audits (runAudit) — the
// independent oracle's verdicts — never by request errors, which say
// nothing about plan correctness. Without ServerConfig.AuditEvery there
// are no verdicts, so it never trips.
type breaker struct {
	threshold  float64
	minSamples int
	cooloff    time.Duration

	mu       sync.Mutex
	window   []bool // ring of verdicts; true = audit failure
	idx      int
	filled   int
	fails    int
	state    string
	openedAt time.Time
	trips    uint64
}

func newBreaker(window int, threshold float64, minSamples int, cooloff time.Duration) *breaker {
	return &breaker{
		threshold:  threshold,
		minSamples: minSamples,
		cooloff:    cooloff,
		window:     make([]bool, window),
		state:      breakerClosed,
	}
}

// allowFull reports whether a full solve may run right now. An open
// breaker whose cooloff has elapsed transitions to half-open and lets
// this one solve through as the probe.
func (b *breaker) allowFull() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return true
	}
	if time.Since(b.openedAt) >= b.cooloff {
		b.state = breakerHalfOpen
		return true
	}
	return false
}

// record folds one audit verdict into the window and trips the breaker
// when the failure rate crosses the threshold (with at least minSamples
// verdicts observed). In half-open, the single verdict decides: pass
// closes the breaker, fail re-opens it for another cooloff.
func (b *breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		if ok {
			b.resetLocked(breakerClosed)
		} else {
			b.tripLocked()
		}
		return
	case breakerOpen:
		return // verdict from an audit launched before the trip
	}
	if b.filled == len(b.window) {
		if b.window[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.idx] = !ok
	if !ok {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.window)
	if b.filled >= b.minSamples && float64(b.fails) >= b.threshold*float64(b.filled) {
		b.tripLocked()
	}
}

func (b *breaker) tripLocked() {
	b.trips++
	b.resetLocked(breakerOpen)
	b.openedAt = time.Now()
}

func (b *breaker) resetLocked(state string) {
	b.state = state
	b.idx, b.filled, b.fails = 0, 0, 0
	for i := range b.window {
		b.window[i] = false
	}
}

// status returns the breaker's state and lifetime trip count for
// /v1/stats.
func (b *breaker) status() (string, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips
}
