package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"thermosc"
)

// The correctness gate runs after the timed window, outside all timing.
// Any violation fails the run:
//   - every served key returns byte-identical plan bytes across all its
//     responses in the window and from every replica afterwards;
//   - no degraded plan appears in a cold-* workload;
//   - the request accounting sums to the requests attempted;
//   - every distinct served key (or the workload's audit cap of them) is
//     audited once through Platform.Audit, and every audit passes.

// gateReport is the gate's verdict.
type gateReport struct {
	violations []string
	audited    int
	auditMs    []float64
}

func (g *gateReport) failf(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// servedKey is one distinct key served in the window.
type servedKey struct {
	key  string
	req  int // first request of the key
	hash [32]byte
}

// distinctKeys returns the keys of the complete 200s in first-served
// order and checks that every response of a key carried the same bytes.
func distinctKeys(outs []outcome, g *gateReport) []servedKey {
	idx := make(map[string]int)
	var keys []servedKey
	sorted := append([]outcome(nil), outs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].done < sorted[j].done })
	for i := range sorted {
		o := &sorted[i]
		if o.status != http.StatusOK || !o.resp.ok || o.resp.degraded {
			continue
		}
		j, ok := idx[o.resp.key]
		if !ok {
			idx[o.resp.key] = len(keys)
			keys = append(keys, servedKey{key: o.resp.key, req: o.req, hash: o.resp.planHash})
			continue
		}
		if keys[j].hash != o.resp.planHash {
			g.failf("key %s: two different plans in the window", o.resp.key)
		}
	}
	return keys
}

// runGate checks a finished window. plans holds the first served bytes
// of each key.
func runGate(ctx context.Context, wl *workload, f *fleet, cl *client, reqs []benchReq, outs []outcome, plans map[string][]byte) *gateReport {
	g := &gateReport{}
	acc := account(outs)
	if acc.sum() != acc.attempted {
		g.failf("accounting sums to %d of %d attempted", acc.sum(), acc.attempted)
	}
	if wl.replicas == 1 && acc.degraded > 0 {
		g.failf("%d degraded plans in a cold workload", acc.degraded)
	}
	keys := distinctKeys(outs, g)

	// Re-ask every replica for every key: the LRU, the replicated store
	// or the owner must hand back the same bytes.
	for r := range f.urls {
		rn := &runner{cl: cl, urls: []string{f.urls[r]}, plans: newPlanKeeper()}
		sweep := make([]benchReq, len(keys))
		for i, k := range keys {
			sweep[i] = benchReq{body: reqs[k.req].body, name: reqs[k.req].name}
		}
		for i, o := range rn.closedAll(ctx, sweep, cl.conns) {
			k := keys[i]
			switch {
			case o.status != http.StatusOK || !o.resp.ok:
				g.failf("replica %d: %s answered %d on the sweep", r, sweep[i].name, o.status)
			case o.resp.key != k.key:
				g.failf("replica %d: %s came back under key %s, served as %s", r, sweep[i].name, o.resp.key, k.key)
			case o.resp.planHash != k.hash:
				g.failf("replica %d: %s plan bytes differ from the window's", r, sweep[i].name)
			}
		}
	}

	// Audit the distinct keys through the independent oracle.
	audit := keys
	if wl.auditCap > 0 && len(audit) > wl.auditCap {
		// Spread the capped sample evenly over the served order.
		step := float64(len(keys)) / float64(wl.auditCap)
		audit = make([]servedKey, wl.auditCap)
		for i := range audit {
			audit[i] = keys[int(float64(i)*step)]
		}
	}
	g.audited = len(audit)
	type verdict struct {
		ms  float64
		err error
	}
	verdicts := make([]verdict, len(audit))
	var wg sync.WaitGroup
	next := make(chan int, len(audit)) // sized to the number of sends
	for i := range audit {
		next <- i
	}
	close(next)
	platforms := newPlatformCache()
	for w := 0; w < cl.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := audit[i]
				start := time.Now()
				err := auditPlan(platforms, reqs[k.req].body, plans[k.key], k.hash)
				verdicts[i] = verdict{ms: ms(time.Since(start)), err: err}
			}
		}()
	}
	wg.Wait()
	for i, v := range verdicts {
		g.auditMs = append(g.auditMs, v.ms)
		if v.err != nil {
			g.failf("audit %s: %v", reqs[audit[i].req].name, v.err)
		}
	}
	return g
}

// platformCache shares one audit Platform per spec across the audit
// workers.
type platformCache struct {
	mu sync.Mutex
	m  map[string]*platformOnce
}

type platformOnce struct {
	once sync.Once
	p    *thermosc.Platform
	err  error
}

func newPlatformCache() *platformCache { return &platformCache{m: make(map[string]*platformOnce)} }

func (c *platformCache) get(spec thermosc.PlatformSpec) (*thermosc.Platform, error) {
	key := platformKey(spec)
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &platformOnce{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.p, e.err = newPlatform(spec) })
	return e.p, e.err
}

// auditPlan decodes a served plan and re-checks it from first principles.
func auditPlan(platforms *platformCache, body, planBytes []byte, hash [32]byte) error {
	if sha256.Sum256(planBytes) != hash {
		return fmt.Errorf("kept plan bytes do not match the served hash")
	}
	var req thermosc.MaximizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	p, err := platforms.get(req.Platform)
	if err != nil {
		return fmt.Errorf("building platform: %w", err)
	}
	var plan thermosc.Plan
	if err := json.Unmarshal(planBytes, &plan); err != nil {
		return fmt.Errorf("decoding plan: %w", err)
	}
	rep, err := p.Audit(&plan, req.TmaxC)
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("%s", rep.String())
	}
	return nil
}
