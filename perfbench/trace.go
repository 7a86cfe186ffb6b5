package main

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// clusterHopHeader is the header a replica sets when it forwards a
// request to the key's owner (thermosc's servecluster.go).
const clusterHopHeader = "X-Thermosc-Cluster-Hop"

// handlerSpan is one Server.ServeHTTP call on one replica, timed by the
// wrapper around it. The recorder stamps offsets from its origin; the
// traced run moves them onto the window's clock.
type handlerSpan struct {
	Replica   int    `json:"replica"`
	ReqID     int    `json:"req_id"` // client request index; -1 for forwarded hops and internal calls
	Hop       bool   `json:"hop"`    // arrived as a forward from another replica
	Parent    int    `json:"parent"` // index of the enclosing forwarder span; -1 none
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Status    int    `json:"status"`
	Cached    bool   `json:"cached"`
	Shared    bool   `json:"shared"`
	Degraded  bool   `json:"degraded"`
	Source    string `json:"source,omitempty"`
	Key       string `json:"key,omitempty"`
	RespBytes int    `json:"resp_bytes"`
	body      []byte // the /v1/maximize reply, parsed and dropped by finish
}

func (s *handlerSpan) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps handler spans in memory for the traced run.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []handlerSpan
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// wrap returns the span-recording handler for one replica.
func (rec *recorder) wrap(replica int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := -1
		if v := r.Header.Get(reqIDHeader); v != "" {
			id, _ = strconv.Atoi(v)
			r.Header.Del(reqIDHeader)
		}
		isMax := r.URL.Path == "/v1/maximize"
		cw := &captureWriter{ResponseWriter: w, capture: isMax, status: http.StatusOK}
		start := time.Since(rec.origin)
		next.ServeHTTP(cw, r)
		end := time.Since(rec.origin)
		if !isMax {
			return
		}
		rec.mu.Lock()
		rec.spans = append(rec.spans, handlerSpan{
			Replica: replica, ReqID: id, Hop: r.Header.Get(clusterHopHeader) != "", Parent: -1,
			StartNs: int64(start), EndNs: int64(end), Status: cw.status,
			RespBytes: cw.buf.Len(), body: cw.buf.Bytes(),
		})
		rec.mu.Unlock()
	})
}

// captureWriter tees the reply body so the span can carry the reply's
// source, cached and key fields.
type captureWriter struct {
	http.ResponseWriter
	capture bool
	status  int
	buf     bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.capture {
		c.buf.Write(b)
	}
	return c.ResponseWriter.Write(b)
}

// finish parses the captured replies and nests every forwarded hop inside
// the forwarder's span: same key, another replica, enclosing interval.
func (rec *recorder) finish() []handlerSpan {
	rec.mu.Lock()
	spans := rec.spans
	rec.spans = nil
	rec.mu.Unlock()
	for i := range spans {
		s := &spans[i]
		if s.Status == http.StatusOK {
			r := parseResponse(s.body)
			s.Cached, s.Shared, s.Degraded, s.Source, s.Key = r.cached, r.shared, r.degraded, r.source, r.key
		}
		s.body = nil
	}
	nestHops(spans)
	return spans
}

// nestHops links each hop span to the tightest enclosing non-hop span of
// the same key on another replica.
func nestHops(spans []handlerSpan) {
	byKey := make(map[string][]int)
	for i := range spans {
		if !spans[i].Hop && spans[i].Key != "" {
			byKey[spans[i].Key] = append(byKey[spans[i].Key], i)
		}
	}
	for i := range spans {
		in := &spans[i]
		if !in.Hop || in.Key == "" {
			continue
		}
		best := -1
		for _, j := range byKey[in.Key] {
			out := &spans[j]
			if out.Replica == in.Replica || out.StartNs > in.StartNs || out.EndNs < in.EndNs {
				continue
			}
			if best < 0 || out.dur() < spans[best].dur() {
				best = j
			}
		}
		in.Parent = best
	}
}

// isSolve reports whether the span is the one whose handler ran the
// solve: a 200 miss that was neither answered by a cache nor joined
// another request's solve, nor proxied to the owner.
func (s *handlerSpan) isSolve() bool {
	return s.Status == http.StatusOK && !s.Cached && !s.Shared && s.Source != "forwarded" && s.Key != ""
}

// replayCost is the replayed time of one cold key's layers.
type replayCost struct {
	solve, marshal, encode time.Duration
}

func (c replayCost) total() time.Duration { return c.solve + c.marshal + c.encode }

// uncoveredPct is the share of solving handler time that the replayed
// layers (solve, plan marshal, response encode) do not account for:
// 100·Σ(span − replayed)/Σ span over the solving spans whose key was
// replayed. It is the benchmark's check that the parts add up to the
// whole; it can be negative when the replay ran slower than the server.
func uncoveredPct(spans []handlerSpan, replayed map[string]replayCost) float64 {
	var whole, parts time.Duration
	for i := range spans {
		s := &spans[i]
		c, ok := replayed[s.Key]
		if !ok || !s.isSolve() {
			continue
		}
		whole += s.dur()
		parts += c.total()
	}
	if whole == 0 {
		return 0
	}
	return 100 * float64(whole-parts) / float64(whole)
}
