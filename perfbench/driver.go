package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one attempted request, timed from the window start. For the
// open loop `due` is the scheduled send time and `enq` when the generator
// handed the request to a worker; for the closed loop both equal `sent`.
type outcome struct {
	req                  int // index into the request list
	due, enq, sent, done time.Duration
	status               int // 0 = transport error
	respBytes            int
	resp                 respInfo
}

// respInfo is what the client reads from a 200 body.
type respInfo struct {
	ok       bool // the body decoded
	cached   bool
	shared   bool
	degraded bool
	key      string
	source   string
	planHash [32]byte
	plan     []byte // kept only for the first response of each key
}

// latency is what a user waits: from the due time in an open loop, from
// the send in a closed loop (where due == sent), to the last body byte.
func (o *outcome) latency() time.Duration { return o.done - o.due }

// parseResponse decodes the fields the gate and the metrics need.
func parseResponse(body []byte) respInfo {
	var r struct {
		Plan     json.RawMessage `json:"plan"`
		Cached   bool            `json:"cached"`
		Shared   bool            `json:"shared"`
		Degraded bool            `json:"degraded"`
		Key      string          `json:"key"`
		Source   string          `json:"source"`
	}
	if json.Unmarshal(body, &r) != nil || len(r.Plan) == 0 || r.Key == "" {
		return respInfo{}
	}
	return respInfo{
		ok: true, cached: r.Cached, shared: r.Shared, degraded: r.Degraded,
		key: r.Key, source: r.Source, planHash: sha256.Sum256(r.Plan), plan: r.Plan,
	}
}

// planKeeper keeps the first plan bytes served for each key.
type planKeeper struct {
	mu    sync.Mutex
	bytes map[string][]byte
}

func (p *planKeeper) keep(r *respInfo) {
	p.mu.Lock()
	if _, ok := p.bytes[r.key]; !ok {
		p.bytes[r.key] = append([]byte(nil), r.plan...)
	}
	p.mu.Unlock()
	r.plan = nil
}

// runner sends requests to the fleet and records outcomes.
type runner struct {
	cl     *client
	urls   []string
	traced bool // send request IDs for the handler spans
	plans  *planKeeper
}

func (rn *runner) fire(ctx context.Context, reqs []benchReq, i int, o *outcome, start time.Time) {
	id := -1
	if rn.traced {
		id = i
	}
	o.req = i
	o.sent = time.Since(start)
	status, body := rn.cl.post(ctx, rn.urls[reqs[i].target], reqs[i].body, id)
	o.done = time.Since(start)
	o.status, o.respBytes = status, len(body)
	if status == http.StatusOK {
		o.resp = parseResponse(body)
		if o.resp.ok {
			rn.plans.keep(&o.resp)
		}
	}
}

// openLoop sends every request at its due time through `workers`
// in-flight slots. A request whose slot is busy waits, and that wait
// counts in its latency because latency runs from the due time.
func (rn *runner) openLoop(ctx context.Context, reqs []benchReq, workers int) []outcome {
	out := make([]outcome, len(reqs))
	jobs := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rn.fire(ctx, reqs, i, &out[i], start)
			}
		}()
	}
	for i := range reqs {
		if wait := reqs[i].at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = reqs[i].at
		out[i].enq = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs `clients` clients that each send their next request
// when the previous reply is read, until `window` has elapsed or the list
// runs out. The request in flight at the deadline completes and counts.
func (rn *runner) closedLoop(ctx context.Context, reqs []benchReq, clients int, window time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				rn.fire(ctx, reqs, i, &out[i], start)
				out[i].due, out[i].enq = out[i].sent, out[i].sent
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(reqs) {
		n = len(reqs)
	}
	// A client that lost the race past the deadline reserved no request:
	// indexes are reserved only after the deadline check, so out[:n] are
	// exactly the requests sent.
	return out[:n]
}

// closedAll sends a whole request list closed-loop over `workers`
// clients; setup and the gate's sweep use it.
func (rn *runner) closedAll(ctx context.Context, reqs []benchReq, workers int) []outcome {
	return rn.closedLoop(ctx, reqs, workers, time.Duration(1<<62))
}

func newPlanKeeper() *planKeeper { return &planKeeper{bytes: make(map[string][]byte)} }
