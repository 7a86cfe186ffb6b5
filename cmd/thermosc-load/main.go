// Command thermosc-load is an open-loop load generator for the
// planning service: a seed-pinned request stream with Poisson or ramp
// arrivals and zipf-skewed platform popularity, driven either at an
// existing fleet (-targets) or at a self-contained in-process cluster
// (-cluster N). The run's report — exact request accounting, latency
// percentiles, cache hit ratio, serve-source split, and cross-replica
// plan-identity violations — is printed as JSON and optionally written
// to -out; a run with errors, plan mismatches, or broken accounting
// exits nonzero, so the report doubles as a CI gate.
//
// Usage:
//
//	thermosc-load -cluster 3 -n 5000 -rate 500 -out report.json
//	thermosc-load -targets http://a:8080,http://b:8080 -n 100000 -curve ramp
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thermosc"
	"thermosc/internal/cluster"
)

func main() {
	var (
		targets     = flag.String("targets", "", "comma-separated replica base URLs to drive")
		clusterN    = flag.Int("cluster", 0, "spin up N in-process replicas and drive them (mutually exclusive with -targets)")
		n           = flag.Int("n", 1000, "total requests")
		rate        = flag.Float64("rate", 200, "mean arrival rate (req/s)")
		curve       = flag.String("curve", "poisson", "arrival curve: poisson or ramp")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf skew exponent (>1)")
		zipfV       = flag.Float64("zipf-v", 1, "zipf offset (>=1)")
		seed        = flag.Int64("seed", 1, "workload seed (pins schedule, picks, and deadlines)")
		maxCores    = flag.Int("max-cores", 16, "largest catalog platform (total cores)")
		tmax        = flag.String("tmax", "60,70,80", "comma-separated thermal thresholds (°C)")
		methods     = flag.String("methods", "AO,LNS", "comma-separated solver methods")
		paperLevels = flag.Int("paper-levels", 3, "voltage level set for every platform")
		timeoutMin  = flag.Float64("timeout-min", 1, "per-request deadline lower bound (s)")
		timeoutMax  = flag.Float64("timeout-max", 10, "per-request deadline upper bound (s)")
		concurrency = flag.Int("concurrency", 256, "max in-flight requests")
		out         = flag.String("out", "", "write the JSON report to this file")
		maxErrors   = flag.Int("max-errors", -1, "fail the run when more than this many requests error (-1 disables; deadline 504s count as errors)")
		churn       = flag.Int("churn", 0, "run N seed-pinned kill/restart cycles against the in-process cluster during the load (requires -cluster; report gains per-phase splits)")
		timeline    = flag.String("timeline", "", "write the fleet's per-peer health-transition timelines (JSON) to this file after the run (requires -cluster)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var urls []string
	var flt *fleet
	switch {
	case *clusterN > 0 && *targets != "":
		log.Fatal("thermosc-load: -cluster and -targets are mutually exclusive")
	case *clusterN > 0:
		f, err := startFleet(*clusterN, fleetPeriod, fleetPeriod)
		if err != nil {
			log.Fatalf("thermosc-load: %v", err)
		}
		defer f.stop()
		flt = f
		urls = f.urls
		log.Printf("thermosc-load: started %d in-process replicas: %v", *clusterN, urls)
	case *targets != "":
		if *churn > 0 || *timeline != "" {
			log.Fatal("thermosc-load: -churn/-timeline need the in-process fleet (-cluster N)")
		}
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				urls = append(urls, strings.TrimRight(t, "/"))
			}
		}
	default:
		log.Fatal("thermosc-load: one of -targets or -cluster is required")
	}

	cfg := cluster.LoadConfig{
		Targets:     urls,
		Requests:    *n,
		RateHz:      *rate,
		Curve:       *curve,
		ZipfS:       *zipfS,
		ZipfV:       *zipfV,
		Seed:        *seed,
		MaxCores:    *maxCores,
		TmaxC:       parseFloats(*tmax),
		Methods:     parseList(*methods),
		PaperLevels: *paperLevels,
		TimeoutMinS: *timeoutMin,
		TimeoutMaxS: *timeoutMax,
		Concurrency: *concurrency,
	}
	log.Printf("thermosc-load: %d requests at %.0f/s (%s curve, seed %d) across %d targets",
		cfg.Requests, cfg.RateHz, cfg.Curve, cfg.Seed, len(urls))

	// Churn mode: script seed-pinned kill/restart cycles over the run
	// window and split the report's accounting at each event boundary.
	var churnEvents []cluster.ChurnEvent
	if *churn > 0 {
		sched := cfg.Schedule()
		churnEvents = cluster.ChurnSchedule(*seed, *clusterN, *churn, sched[len(sched)-1])
		cfg.Phases = cluster.PhasesFor(churnEvents)
		for _, ev := range churnEvents {
			log.Printf("thermosc-load: churn: %s replica %d at +%s", ev.Kind, ev.Replica, ev.At.Round(time.Millisecond))
		}
	}

	start := time.Now()
	if len(churnEvents) > 0 {
		go flt.runChurn(ctx, churnEvents, start)
	}
	report, err := cluster.RunLoad(ctx, cfg)
	if err != nil {
		log.Fatalf("thermosc-load: %v", err)
	}
	log.Printf("thermosc-load: done in %s", time.Since(start).Round(time.Millisecond))

	if *timeline != "" {
		if err := flt.writeTimelines(*timeline); err != nil {
			log.Fatalf("thermosc-load: writing %s: %v", *timeline, err)
		}
		log.Printf("thermosc-load: health timelines written to %s", *timeline)
	}

	rb, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("thermosc-load: encoding report: %v", err)
	}
	fmt.Println(string(rb))
	if *out != "" {
		if err := os.WriteFile(*out, append(rb, '\n'), 0o644); err != nil {
			log.Fatalf("thermosc-load: writing %s: %v", *out, err)
		}
		log.Printf("thermosc-load: report written to %s", *out)
	}

	// Gate: the run is a failure when accounting breaks or any replica
	// returned two different complete plans for one key; sheds,
	// infeasibles, and (below -max-errors) deadline timeouts are
	// legitimate answers.
	failed := false
	if sum := report.Served + report.Infeasible + report.Shed + report.Errors; sum != report.Requests {
		log.Printf("thermosc-load: FAIL: accounting sums to %d of %d requests", sum, report.Requests)
		failed = true
	}
	if len(report.PlanMismatches) > 0 {
		log.Printf("thermosc-load: FAIL: %d keys returned divergent complete plans: %v",
			len(report.PlanMismatches), report.PlanMismatches)
		failed = true
	}
	if *maxErrors >= 0 && report.Errors > *maxErrors {
		log.Printf("thermosc-load: FAIL: %d requests errored (cap %d)", report.Errors, *maxErrors)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// fleetPeriod is the in-process fleet's gossip and probe period, the one
// perfbench's fleet runs at.
const fleetPeriod = 250 * time.Millisecond

// fleet is the in-process replica set of -cluster N. Each replica
// remembers its cluster config so churn mode can kill it and bring an
// identically-configured incarnation back on the same address.
type fleet struct {
	urls  []string
	cfgs  []thermosc.ClusterConfig
	srvs  []*thermosc.Server
	https []*http.Server
}

// startFleet boots n replicas on ephemeral loopback ports, each
// configured with the others as peers and the default store capacity.
func startFleet(n int, syncInterval, probeInterval time.Duration) (*fleet, error) {
	lns := make([]net.Listener, n)
	f := &fleet{
		urls:  make([]string, n),
		cfgs:  make([]thermosc.ClusterConfig, n),
		srvs:  make([]*thermosc.Server, n),
		https: make([]*http.Server, n),
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		f.urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		peers := make([]string, 0, n-1)
		for j, u := range f.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		f.cfgs[i] = thermosc.ClusterConfig{
			Self:          f.urls[i],
			Peers:         peers,
			SyncInterval:  syncInterval,
			ProbeInterval: probeInterval,
		}
		if err := f.boot(i, lns[i]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// boot builds replica i's server around an already-bound listener.
func (f *fleet) boot(i int, ln net.Listener) error {
	cfg := f.cfgs[i]
	srv := thermosc.NewServer(thermosc.ServerConfig{Cluster: &cfg})
	hs := &http.Server{Handler: srv}
	f.srvs[i], f.https[i] = srv, hs
	go func() { _ = hs.Serve(ln) }()
	return nil
}

// kill hard-stops replica i: listeners close, in-flight connections are
// cut — the closest in-process approximation of a process kill.
func (f *fleet) kill(i int) {
	_ = f.https[i].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = f.srvs[i].Shutdown(ctx)
	cancel()
}

// restart brings replica i back on its original address with its
// original config (an empty store — recovery runs through the sync
// round that re-admits it and through gossip, which is the point of
// churn mode). The survivors' pooled connections to the old incarnation
// are dropped so the restarted replica is rediscovered cleanly.
func (f *fleet) restart(i int) error {
	addr := strings.TrimPrefix(f.urls[i], "http://")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", addr, err)
	}
	if err := f.boot(i, ln); err != nil {
		return err
	}
	for j, srv := range f.srvs {
		if j != i {
			srv.CloseIdlePeerConnections()
		}
	}
	return nil
}

// runChurn replays a seed-pinned kill/restart script against the fleet,
// offsets measured from start.
func (f *fleet) runChurn(ctx context.Context, events []cluster.ChurnEvent, start time.Time) {
	for _, ev := range events {
		wait := ev.At - time.Since(start)
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		switch ev.Kind {
		case cluster.ChurnKill:
			log.Printf("thermosc-load: churn: killing replica %d (%s)", ev.Replica, f.urls[ev.Replica])
			f.kill(ev.Replica)
		case cluster.ChurnRestart:
			log.Printf("thermosc-load: churn: restarting replica %d (%s)", ev.Replica, f.urls[ev.Replica])
			if err := f.restart(ev.Replica); err != nil {
				log.Printf("thermosc-load: churn: restart failed: %v", err)
			}
		}
	}
}

// writeTimelines collects every live replica's health-transition log
// (GET /v1/cluster?timeline=1) into one JSON file — the per-peer health
// timeline artifact the churn CI job uploads.
func (f *fleet) writeTimelines(path string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	timelines := make(map[string]json.RawMessage, len(f.urls))
	for _, u := range f.urls {
		resp, err := client.Get(u + "/v1/cluster?timeline=1")
		if err != nil {
			timelines[u] = json.RawMessage(`"unreachable"`)
			continue
		}
		var status struct {
			Timeline json.RawMessage `json:"timeline"`
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil || len(status.Timeline) == 0 {
			timelines[u] = json.RawMessage(`[]`)
			continue
		}
		timelines[u] = status.Timeline
	}
	b, err := json.MarshalIndent(timelines, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (f *fleet) stop() {
	for i := range f.srvs {
		f.kill(i)
	}
}

func parseList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, p := range parseList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			log.Fatalf("thermosc-load: bad float %q", p)
		}
		out = append(out, v)
	}
	return out
}
