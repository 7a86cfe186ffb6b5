// Command perfbench is the serve-level benchmark of thermosc. It drives
// the shipped planning server (thermosc.NewServer with the default
// ServerConfig) over loopback HTTP with one of three seed-pinned
// workloads, checks every served plan, and prints one JSON result line
// as the last line of standard output.
//
//	perfbench --workload cold-dense --seed 1 --seconds 45 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same seed twice, untraced and then with handler spans, replays
// the run's cold keys layer by layer, and prints the per-layer metrics.
// --grid-check solves and audits every key a workload can draw and lists
// the keys the oracle rejects. README.md in this directory has the
// metrics, the workloads and the findings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet3-zipf, cold-dense or cold-sparse")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "timed window length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	gridCheck := fs.Bool("grid-check", false, "solve and audit every key the workload can draw, list oracle violations, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (fleet3-zipf, cold-dense, cold-sparse), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	ctx := context.Background()
	if *gridCheck {
		return runGridCheck(ctx, wl, stdout, stderr)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = endToEnd(ctx, wl, *seed, window, stderr)
	} else {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		res, err = traced(ctx, wl, *seed, window, path, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printTable(stderr, wl, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// benchProcs is the Go scheduler width of the whole run, servers and
// client. On the 2-vCPU reference VM two-thread solves of identical work
// varied by 15–25 % from run to run, one-thread solves by about 3 %; so
// the benchmark measures the server on one CPU, and parallel speedups are
// out of its scope.
const benchProcs = 1

// conns is the client's in-flight bound: one request per CPU.
func conns() int { return runtime.NumCPU() }

// setupReps is how many times a run boots and warms the servers; setup_s
// is the median.
const setupReps = 9

// setup boots the workload's servers and runs its prefill: the time
// before the first timed request could be sent.
func setup(ctx context.Context, wl *workload, wrap wrapFunc) (*fleet, *client, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(wl.replicas, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient(conns())
	rn := &runner{cl: cl, urls: f.urls, plans: newPlanKeeper()}
	pre := wl.prefill()
	for i, o := range rn.closedAll(ctx, pre, conns()) {
		if o.status != 200 || !o.resp.ok || o.resp.degraded {
			f.stop()
			cl.close()
			return nil, nil, 0, fmt.Errorf("prefill %s answered %d", pre[i].name, o.status)
		}
	}
	return f, cl, time.Since(start), nil
}

// windowRun is one timed window and what was measured around it.
type windowRun struct {
	start   time.Time
	outs    []outcome
	plans   map[string][]byte
	wall    time.Duration // window start to the last completion
	stats   fleetStats    // counter deltas over the window
	cpu     time.Duration // process user+sys over the window
	alloc   uint64        // heap bytes allocated over the window
	heapMB  float64       // live heap after the window and a forced GC
	latency []float64     // ms, ascending
}

// measure runs one timed window on a set-up fleet.
func measure(ctx context.Context, wl *workload, f *fleet, cl *client, reqs []benchReq, window time.Duration, tracedRun bool) *windowRun {
	rn := &runner{cl: cl, urls: f.urls, traced: tracedRun, plans: newPlanKeeper()}
	runtime.GC()
	before := f.stats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	w := &windowRun{start: time.Now()}
	if wl.rateHz > 0 {
		w.outs = rn.openLoop(ctx, reqs, conns())
	} else {
		w.outs = rn.closedLoop(ctx, reqs, wl.clients, window)
	}
	for i := range w.outs {
		w.wall = max(w.wall, w.outs[i].done)
		w.latency = append(w.latency, ms(w.outs[i].latency()))
	}
	w.cpu = cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	w.stats = f.stats().sub(before)
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	w.heapMB = float64(ms2.HeapAlloc) / (1 << 20)
	sort.Float64s(w.latency)
	w.plans = rn.plans.bytes
	return w
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd is the --trace 0 run: set up setupReps times, time one
// window on the last set-up, check it, and report the end-to-end metrics.
func endToEnd(ctx context.Context, wl *workload, seed int64, window time.Duration, stderr io.Writer) (*result, error) {
	reqs, err := wl.requests(seed, window.Seconds())
	if err != nil {
		return nil, err
	}
	var (
		f      *fleet
		cl     *client
		setups []float64
	)
	for k := 0; k < setupReps; k++ {
		if f != nil {
			f.stop()
			cl.close()
		}
		var d time.Duration
		if f, cl, d, err = setup(ctx, wl, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { f.stop(); cl.close() }()
	w := measure(ctx, wl, f, cl, reqs, window, false)
	g := runGate(ctx, wl, f, cl, reqs, w.outs, w.plans)
	reportGate(stderr, g)
	acc := account(w.outs)
	n := float64(acc.attempted)
	tailV, tailP := tail(w.latency, wl.tailP)
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d attempted, %d ok; tail p%.4g of n=%d; latency ms:", wl.name, seed, acc.attempted, acc.ok, tailP, len(w.latency))
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999, 1} {
		fmt.Fprintf(stderr, " p%g %.3f", 100*p, nearestRank(w.latency, p))
	}
	fmt.Fprintln(stderr)
	res := &result{
		Correct:   len(g.violations) == 0,
		Attempted: acc.attempted,
		Failed:    acc.failed(),
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"throughput_rps":   {float64(acc.ok) / w.wall.Seconds(), "1/s"},
			"latency_p50_ms":   {nearestRank(w.latency, 0.5), "ms"},
			"latency_tail_ms":  {tailV, "ms"},
			"success_ratio":    {float64(acc.ok) / n, "ratio"},
			"cpu_ms_per_req":   {ms(w.cpu) / n, "ms"},
			"alloc_kb_per_req": {float64(w.alloc) / 1024 / n, "KB"},
			"heap_mb":          {w.heapMB, "MB"},
		},
	}
	return res, nil
}

func reportGate(stderr io.Writer, g *gateReport) {
	fmt.Fprintf(stderr, "perfbench: gate: %d keys audited, %d violations\n", g.audited, len(g.violations))
	for _, v := range g.violations {
		fmt.Fprintf(stderr, "perfbench: VIOLATION: %s\n", v)
	}
}

// printTable writes the metrics, one per line, to stderr.
func printTable(stderr io.Writer, wl *workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "perfbench: %s: correct=%v attempted=%d failed=%d\n", wl.name, res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(stderr, "  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

// finite replaces a NaN or infinite value (an empty sample) by 0 so the
// result line always encodes.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// runGridCheck serves every key the workload can draw, known violations
// included, and audits each one. It prints one line per rejected key in
// the form knownViolations uses, and exits 1 when there is any.
func runGridCheck(ctx context.Context, wl *workload, stdout, stderr io.Writer) int {
	reqs := wl.grid()
	all := *wl
	all.auditCap = 0
	all.replicas = 1
	f, err := startFleet(1, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer f.stop()
	cl := newClient(conns())
	defer cl.close()
	rn := &runner{cl: cl, urls: f.urls, plans: newPlanKeeper()}
	outs := rn.closedAll(ctx, reqs, conns())
	g := runGate(ctx, &all, f, cl, reqs, outs, rn.plans.bytes)
	fmt.Fprintf(stderr, "perfbench: grid-check %s: %d keys, %d audited\n", wl.name, len(reqs), g.audited)
	for _, v := range g.violations {
		fmt.Fprintln(stdout, strings.TrimPrefix(v, "audit "))
	}
	if len(g.violations) > 0 {
		return 1
	}
	return 0
}
