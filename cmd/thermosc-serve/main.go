// Command thermosc-serve runs the planning service: a long-lived HTTP
// daemon answering throughput-maximization and simulation requests over
// JSON, with plan caching, request deduplication, per-request timeouts,
// and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	thermosc-serve -addr :8080
//
// Endpoints (see docs/SERVE.md for the full schemas):
//
//	POST /v1/maximize  {"platform":{"rows":3,"cols":1},"tmax_c":65,"method":"AO"}
//	POST /v1/simulate  {"platform":{...},"plan":{...},"periods":3}
//	GET  /healthz
//	GET  /v1/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thermosc"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		planCache     = flag.Int("plan-cache", 256, "LRU plan cache capacity (in cluster mode it holds only degraded plans)")
		platformCache = flag.Int("platform-cache", 32, "LRU platform/engine cache capacity")
		maxCores      = flag.Int("max-cores", 256, "largest platform (total cores) accepted")
		timeout       = flag.Duration("timeout", 30*time.Second, "default per-request solve timeout")
		maxTimeout    = flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested timeouts")
		grace         = flag.Duration("grace", 30*time.Second, "shutdown drain grace period")
		auditEvery    = flag.Int("audit-every", 0, "audit every Nth cold solve with the verification oracle (0 disables)")
		solveConc     = flag.Int("solve-concurrency", 0, "concurrent solve slots (0 = GOMAXPROCS)")
		solveQueue    = flag.Int("solve-queue", 0, "admission queue depth; beyond it requests shed with 429 (0 = default 256)")

		// Fleet flags (see docs/CLUSTER.md). -peers turns on clustering.
		self         = flag.String("self", "", "this replica's advertised base URL (default http://<bound addr>)")
		peers        = flag.String("peers", "", "comma-separated peer base URLs; non-empty enables clustering")
		syncInterval = flag.Duration("sync-interval", 2*time.Second, "anti-entropy gossip period (0 disables the background loop)")
		storeCap     = flag.Int("store-cap", 0, "replicated plan store capacity (0 = default 4096)")
		storePath    = flag.String("store-path", "", "crash-safe append-only log for the plan store, replayed at startup (empty keeps the store in memory only)")

		// Self-healing flags (failure detector).
		probeInterval = flag.Duration("probe-interval", time.Second, "peer /healthz probe period for the failure detector (0 disables dedicated probes; gossip still feeds the detector)")
	)
	flag.Parse()

	// The listener binds before the server is built so -self can default
	// to the actually-bound address (-addr 127.0.0.1:0 picks a port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("thermosc-serve: listen %s: %v", *addr, err)
	}

	var clusterCfg *thermosc.ClusterConfig
	if *peers != "" || *self != "" {
		advertised := *self
		if advertised == "" {
			advertised = "http://" + ln.Addr().String()
		}
		clusterCfg = &thermosc.ClusterConfig{
			Self:          advertised,
			Peers:         splitList(*peers),
			SyncInterval:  *syncInterval,
			StoreCap:      *storeCap,
			StorePath:     *storePath,
			ProbeInterval: *probeInterval,
		}
	} else if *storePath != "" {
		log.Fatalf("thermosc-serve: -store-path needs clustering (-peers or -self)")
	}

	srv := thermosc.NewServer(thermosc.ServerConfig{
		PlanCacheSize:     *planCache,
		PlatformCacheSize: *platformCache,
		MaxCores:          *maxCores,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		AuditEvery:        *auditEvery,
		SolveConcurrency:  *solveConc,
		SolveQueue:        *solveQueue,
		Cluster:           clusterCfg,
	})
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The resolved address goes to stdout so scripts and the e2e harness
	// can discover an ephemeral port (-addr 127.0.0.1:0).
	fmt.Printf("listening %s\n", ln.Addr())
	log.Printf("thermosc-serve: listening on %s", ln.Addr())
	if clusterCfg != nil {
		log.Printf("thermosc-serve: cluster self=%s peers=%v", clusterCfg.Self, clusterCfg.Peers)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		log.Fatalf("thermosc-serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("thermosc-serve: draining (grace %s)", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Stop accepting and drain connections, then drain solver work; both
	// share the grace deadline.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("thermosc-serve: connection drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("thermosc-serve: solve drain: %v", err)
		os.Exit(1)
	}
	log.Printf("thermosc-serve: drained, bye")
}

// splitList parses a comma-separated flag value into trimmed non-empty
// items.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
