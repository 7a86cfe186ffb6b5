package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// layerPlatforms are the platforms whose thermosc.New cost is reported,
// every platform any workload touches.
var layerPlatforms = []string{"mesh-2x1", "mesh-3x3", "biglittle-4x4-s1", "stack-3x3x2", "mesh-8x8", "biglittle-8x8-s2"}

// traced is the --trace 1 run: an untraced window for the tracing
// overhead baseline, then the same seed on fresh servers with handler
// spans, the correctness gate, the layer replay, and the per-layer
// metrics. The spans are written to spansPath at the end.
func traced(ctx context.Context, wl *workload, seed int64, window time.Duration, spansPath string, stderr io.Writer) (*result, error) {
	reqs, err := wl.requests(seed, window.Seconds())
	if err != nil {
		return nil, err
	}
	f, cl, _, err := setup(ctx, wl, nil)
	if err != nil {
		return nil, err
	}
	base := measure(ctx, wl, f, cl, reqs, window, false)
	f.stop()
	cl.close()

	rec := newRecorder()
	if f, cl, _, err = setup(ctx, wl, rec.wrap); err != nil {
		return nil, err
	}
	defer func() { f.stop(); cl.close() }()
	rec.finish() // drop the prefill's spans
	w := measure(ctx, wl, f, cl, reqs, window, true)
	spans := rec.finish()
	shift := int64(w.start.Sub(rec.origin)) // onto the window's clock
	for i := range spans {
		spans[i].StartNs -= shift
		spans[i].EndNs -= shift
	}
	g := runGate(ctx, wl, f, cl, reqs, w.outs, w.plans)

	keyReq := make(map[string]int)
	for i := range w.outs {
		if o := &w.outs[i]; o.resp.ok {
			if _, ok := keyReq[o.resp.key]; !ok {
				keyReq[o.resp.key] = o.req
			}
		}
	}
	cold := solvedKeys(spans, keyReq, reqs, w.plans)
	rr, err := replay(wl.prefill(), cold)
	if err != nil {
		return nil, err
	}
	for _, name := range rr.mismatches {
		g.failf("replay of %s produced other plan bytes than the server served", name)
	}
	reportGate(stderr, g)
	builds, err := buildTimes(layerPlatforms, 5)
	if err != nil {
		return nil, err
	}
	var served []coldKey
	for k, i := range keyReq {
		served = append(served, coldKey{key: k, body: reqs[i].body, plan: w.plans[k]})
	}
	sort.Slice(served, func(i, j int) bool { return served[i].key < served[j].key })
	ownerNs, getNs, putUs := clusterMicro(served)

	acc := account(w.outs)
	n := float64(acc.attempted)
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{finite(v), unit} }

	var lags []float64
	for i := range w.outs {
		lags = append(lags, ms(w.outs[i].enq-w.outs[i].due))
	}
	sort.Float64s(lags)
	put("loadgen.lag_p99_ms", "ms", nearestRank(lags, 0.99))
	_, tailP := tail(w.latency, wl.tailP)
	put("loadgen.tail_percentile", "%", tailP)
	put("loadgen.samples", "count", float64(len(w.latency)))

	sl := spanLayers(spans, w.outs)
	put("serve.hit_handler_us", "us", median(sl.hitUs))
	put("serve.miss_handler_ms", "ms", median(sl.missMs))
	put("serve.socket_us", "us", median(sl.socketUs))
	var encUs, solveMs, evals, mEval, marshalUs, planKB []float64
	for _, r := range rr.records {
		encUs = append(encUs, r.EncodeUs)
		solveMs = append(solveMs, r.SolveMs)
		evals = append(evals, float64(r.Evals))
		mEval = append(mEval, float64(r.MEvaluated))
		marshalUs = append(marshalUs, r.MarshalUs)
		planKB = append(planKB, float64(r.PlanBytes)/1024)
	}
	put("serve.encode_us", "us", median(encUs))
	var respKB []float64
	for i := range w.outs {
		if w.outs[i].status == http.StatusOK {
			respKB = append(respKB, float64(w.outs[i].respBytes)/1024)
		}
	}
	put("serve.resp_kb", "KB", mean(respKB))
	put("serve.lru_hit_ratio", "ratio", ratio(w.stats.hits, w.stats.hits+w.stats.misses))
	put("serve.singleflight_shared", "count", float64(w.stats.shared))
	put("serve.shed_total", "count", float64(w.stats.shed))
	for _, name := range layerPlatforms {
		put("platform.build_ms."+name, "ms", builds[name])
	}
	put("solver.solve_ms", "ms", median(solveMs))
	put("solver.evals_per_solve", "count", mean(evals))
	put("solver.m_evaluated_per_solve", "count", mean(mEval))
	put("solver.degraded", "count", float64(acc.degraded))
	put("plan.marshal_us", "us", median(marshalUs))
	put("plan.kb", "KB", mean(planKB))
	put("sim.peak_eval_dense_us", "us", median(rr.peakDense))
	put("sim.peak_eval_sparse_us", "us", median(rr.peakSparse))
	ps := rr.propagatorStats()
	put("thermal.steady_hit_ratio", "ratio", ratio(uint64(ps.SteadyHits), uint64(ps.SteadyHits+ps.SteadyMisses)))
	put("thermal.exp_hit_ratio", "ratio", ratio(uint64(ps.ExpHits), uint64(ps.ExpHits+ps.ExpMisses)))
	put("thermal.cache_entries", "count", float64(ps.SteadyMisses+ps.ExpMisses))
	routed := w.stats.local + w.stats.peer + w.stats.forwarded
	put("cluster.local_ratio", "ratio", ratio(w.stats.local, routed))
	put("cluster.peer_fetch_ratio", "ratio", ratio(w.stats.peer, routed))
	put("cluster.forwarded_ratio", "ratio", ratio(w.stats.forwarded, routed))
	put("cluster.forward_hop_ms", "ms", median(sl.hopMs))
	put("cluster.forward_failures", "count", float64(w.stats.forwardFailures))
	put("cluster.sync_failures", "count", float64(w.stats.syncFailures))
	put("cluster.entries_sent_per_req", "count", float64(w.stats.entriesSent)/n)
	put("cluster.owner_ns", "ns", ownerNs)
	put("cluster.store_get_ns", "ns", getNs)
	put("cluster.store_put_us", "us", putUs)
	put("verify.audit_ms", "ms", median(g.auditMs))
	p50, base50 := nearestRank(w.latency, 0.5), nearestRank(base.latency, 0.5)
	put("trace.overhead_pct", "%", 100*(p50-base50)/base50)
	put("trace.uncovered_pct", "%", uncoveredPct(spans, rr.costs))

	printBreakdown(stderr, spans, w.outs, reqs, rr.costs)
	if err := writeSpans(spansPath, wl.name, seed, w, spans, rr); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: spans written to %s\n", spansPath)
	return &result{Correct: len(g.violations) == 0, Attempted: acc.attempted, Failed: acc.failed(), Metrics: m}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// solvedKeys lists the keys whose solve a handler span ran, in the order
// the solves started, with the request body and the served bytes.
func solvedKeys(spans []handlerSpan, keyReq map[string]int, reqs []benchReq, plans map[string][]byte) []coldKey {
	idx := make([]int, 0, len(spans))
	for i := range spans {
		if spans[i].isSolve() {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].StartNs < spans[idx[b]].StartNs })
	seen := make(map[string]bool)
	var out []coldKey
	for _, i := range idx {
		k := spans[i].Key
		r, ok := keyReq[k]
		if !ok || seen[k] || plans[k] == nil {
			continue
		}
		seen[k] = true
		out = append(out, coldKey{key: k, body: reqs[r].body, name: reqs[r].name, plan: plans[k]})
	}
	return out
}

// spanSplit is the handler-span view of the serve and cluster layers.
type spanSplit struct {
	hitUs, missMs, socketUs, hopMs []float64
}

// spanLayers splits the outer handler spans (the replica the client
// called) into hits and misses, pairs each with its client span for the
// socket time, and measures every forward hop against the owner's span.
func spanLayers(spans []handlerSpan, outs []outcome) spanSplit {
	var s spanSplit
	byReq := make(map[int]*outcome, len(outs))
	for i := range outs {
		byReq[outs[i].req] = &outs[i]
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Hop {
			if sp.Parent >= 0 {
				s.hopMs = append(s.hopMs, ms(spans[sp.Parent].dur()-sp.dur()))
			}
			continue
		}
		o, ok := byReq[sp.ReqID]
		if !ok || sp.Status != http.StatusOK {
			continue
		}
		if sp.Cached && sp.Source != "forwarded" {
			s.hitUs = append(s.hitUs, us(sp.dur()))
		} else {
			s.missMs = append(s.missMs, ms(sp.dur()))
		}
		s.socketUs = append(s.socketUs, us((o.done-o.sent)-sp.dur()))
	}
	return s
}

// writeSpans writes the traced run's client, handler and replay spans,
// all on the window's clock.
func writeSpans(path, workload string, seed int64, w *windowRun, spans []handlerSpan, rr *replayResult) error {
	type clientSpan struct {
		Req    int   `json:"req"`
		DueNs  int64 `json:"due_ns"`
		EnqNs  int64 `json:"enq_ns"`
		SentNs int64 `json:"sent_ns"`
		DoneNs int64 `json:"done_ns"`
		Status int   `json:"status"`
	}
	doc := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Client   []clientSpan   `json:"client"`
		Handler  []handlerSpan  `json:"handler"`
		Replay   []replayRecord `json:"replay"`
	}{Workload: workload, Seed: seed, Handler: spans, Replay: rr.records}
	for _, o := range w.outs {
		doc.Client = append(doc.Client, clientSpan{o.req, int64(o.due), int64(o.enq), int64(o.sent), int64(o.done), o.status})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// printBreakdown writes the "where a request's time goes" table: for the
// requests whose outer handler ran the solve, the median of each part per
// platform; for warm hits, the same without solver parts. Client time is
// send to last byte; socket is client minus handler; the rest of the
// handler is what the replayed layers do not cover.
func printBreakdown(stderr io.Writer, spans []handlerSpan, outs []outcome, reqs []benchReq, costs map[string]replayCost) {
	type parts struct{ client, handler, socket, solve, marshal, encode, rest []float64 }
	byReq := make(map[int]*handlerSpan)
	for i := range spans {
		if !spans[i].Hop && spans[i].ReqID >= 0 {
			byReq[spans[i].ReqID] = &spans[i]
		}
	}
	rows := make(map[string]*parts)
	var order []string
	for i := range outs {
		o := &outs[i]
		sp, ok := byReq[o.req]
		if !ok || sp.Status != http.StatusOK {
			continue
		}
		row := ""
		var c replayCost
		switch {
		case sp.Cached && sp.Source != "forwarded":
			row = "warm hit"
		case sp.isSolve():
			if c, ok = costs[sp.Key]; !ok {
				continue
			}
			row = "cold " + strings.Fields(reqs[o.req].name)[0]
		default:
			continue
		}
		p, ok := rows[row]
		if !ok {
			p = &parts{}
			rows[row] = p
			order = append(order, row)
		}
		client := o.done - o.sent
		p.client = append(p.client, us(client))
		p.handler = append(p.handler, us(sp.dur()))
		p.socket = append(p.socket, us(client-sp.dur()))
		p.solve = append(p.solve, us(c.solve))
		p.marshal = append(p.marshal, us(c.marshal))
		p.encode = append(p.encode, us(c.encode))
		p.rest = append(p.rest, us(sp.dur()-c.total()))
	}
	sort.Strings(order)
	fmt.Fprintf(stderr, "perfbench: where a request's time goes (medians, µs):\n")
	fmt.Fprintf(stderr, "  %-24s %6s %11s %11s %9s %11s %9s %9s %9s\n", "requests", "n", "client", "handler", "socket", "solve", "marshal", "encode", "rest")
	for _, row := range order {
		p := rows[row]
		fmt.Fprintf(stderr, "  %-24s %6d %11.1f %11.1f %9.1f %11.1f %9.1f %9.1f %9.1f\n", row, len(p.client),
			median(p.client), median(p.handler), median(p.socket), median(p.solve), median(p.marshal), median(p.encode), median(p.rest))
	}
}
