// Command thermosc-bench runs the gated benchmarks of the root package's
// bench_test.go and emits a machine-readable report (BENCH_ao.json) for the
// CI regression gate.
//
// Usage:
//
//	thermosc-bench [-out BENCH_ao.json] [-baseline BENCH_ao.json] \
//	               [-min-par-speedup 1.2] [-compare-out bench_compare.md]
//
// Each report row is one benchmark of bench_test.go, named in the rows
// table below, and the informational dense-vs-sparse crossover table is
// BenchmarkCrossover. The command runs
//
//	go test -run '^$' -bench <pattern> -benchmem -count 1 thermosc
//
// with the pattern that table yields and reads the result lines back, so
// a row reruns by hand under its benchmark name, e.g.
//
//	go test -run '^$' -bench '^BenchmarkServeBurst$' -benchmem .
//
// The report's gomaxprocs is the -P suffix go test appends to each
// benchmark name (absent at GOMAXPROCS=1). A failed benchmark or a
// missing row is an error.
//
// With -baseline the report is compared row by row against a previous
// run on THREE dimensions: any row whose ns/op exceeds 2.0× its baseline,
// or whose allocs/op or bytes/op exceeds 1.5×, fails the gate and the
// process exits 1. Time is noisy across runners, so it gets the loose 2×
// limit; allocation counts and bytes are deterministic properties of the
// code, so they get the tight 1.5× limit that catches an accidentally
// reintroduced per-candidate allocation long before it costs 2× wall
// clock; against a zero allocs/op or bytes/op baseline any allocation
// fails. A row the baseline lacks is reported but never fails the gate,
// so the suite can grow. A missing baseline fails the gate like any
// unreadable one; -out writes a fresh one.
//
// -min-par-speedup gates the measured ao_search seq/par parallel speedup
// — but only when the run itself has GOMAXPROCS > 1; a single-CPU runner
// cannot exhibit a speedup and records gomaxprocs=1 in the report so the
// blind spot is visible instead of silently waved through.
//
// -compare-out writes a before/after markdown table (baseline vs current,
// all three dimensions) for CI to upload as a workflow artifact.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"thermosc/internal/thermal"
)

// Schema identifies the report layout; bump on incompatible changes.
const Schema = "thermosc-bench/v2"

// The gate's regression limits, as multiples of the baseline.
const (
	maxNsRegression    = 2.0
	maxAllocRegression = 1.5
	maxBytesRegression = 1.5
)

// rows maps each report row, in report order, to the bench_test.go
// benchmark that measures it (its go test name without the -P suffix).
var rows = []struct{ name, bench string }{
	{"ao_search_seq", "BenchmarkAOSearch/seq"},
	{"ao_search_par", "BenchmarkAOSearch/par"},
	{"ao_anytime_halfbudget", "BenchmarkAOAnytimeHalfBudget"},
	{"peak_eval_classic", "BenchmarkPeakEval/classic"},
	{"peak_eval_engine", "BenchmarkPeakEval/engine"},
	{"peak_eval_composed", "BenchmarkPeakEval/composed"},
	{"peak_eval_sparse_256", "BenchmarkPeakEvalSparse"},
	{"serve_burst", "BenchmarkServeBurst"},
	{"ao_search_256", "BenchmarkAOSearch256"},
}

// crossoverBench is the dense-vs-sparse sweep; its results are named
// BenchmarkCrossover/<mesh>/<dense|sparse>/<build|eval>, and the build
// rows report the model's thermal node count as "nodes".
const crossoverBench = "BenchmarkCrossover"

// speedups names each reported speedup and the rows whose ns/op ratio it
// is (reference over measured).
var speedups = map[string][2]string{
	"ao_search":          {"ao_search_seq", "ao_search_par"},
	"peak_eval_engine":   {"peak_eval_classic", "peak_eval_engine"},
	"peak_eval_composed": {"peak_eval_classic", "peak_eval_composed"},
}

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// CrossoverEntry is one point of the dense-vs-sparse comparison: the
// same platform built and evaluated on both algebra backends. Build is
// where the backends diverge asymptotically (O(dim³) eigendecomposition
// vs O(nnz) sparse Cholesky); eval is the warmed per-evaluation cost the
// solvers pay afterwards.
type CrossoverEntry struct {
	Name          string  `json:"name"`
	Dim           int     `json:"dim"` // thermal node count
	DenseBuildNs  float64 `json:"dense_build_ns"`
	SparseBuildNs float64 `json:"sparse_build_ns"`
	DenseEvalNs   float64 `json:"dense_eval_ns"`
	SparseEvalNs  float64 `json:"sparse_eval_ns"`
}

// Report is the full machine-readable output.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the scheduler width the parallel benchmarks actually
	// ran at — the number that decides whether the ao_search speedup is
	// meaningful. A report with gomaxprocs=1 (the historic CI blind spot)
	// cannot see parallel regressions, and the speedup floor is waived.
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchmarks []Entry            `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
	// Crossover is the informational dense-vs-sparse peak-evaluation sweep
	// (not gated: it exists to show WHERE the backends cross, and the
	// answer may legitimately move with the hardware).
	Crossover []CrossoverEntry `json:"crossover,omitempty"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_ao.json", "report output path ('-' for stdout only)")
		basePth = flag.String("baseline", "", "baseline report to gate against (empty = no gate)")
		minPar  = flag.Float64("min-par-speedup", 0, "fail if the ao_search seq/par speedup falls below this (0 = no floor; waived when GOMAXPROCS is 1)")
		cmpOut  = flag.String("compare-out", "", "write a baseline-vs-current markdown comparison table here")
	)
	flag.Parse()

	rep, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d benchmarks, %d CPUs)\n", *out, len(rep.Benchmarks), rep.CPUs)
	}
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-24s %14.0f ns/op  %8d B/op  %6d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	for k, v := range rep.Speedups {
		fmt.Printf("  speedup %-16s %.2fx\n", k, v)
	}
	for _, c := range rep.Crossover {
		fmt.Printf("  crossover %-12s dim %4d  build %12.0f / %12.0f ns  eval %10.0f / %10.0f ns (dense/sparse)\n",
			c.Name, c.Dim, c.DenseBuildNs, c.SparseBuildNs, c.DenseEvalNs, c.SparseEvalNs)
	}

	if *minPar > 0 {
		if rep.GOMAXPROCS <= 1 {
			fmt.Printf("min-par-speedup %.2fx waived: GOMAXPROCS=%d cannot exhibit a parallel speedup\n",
				*minPar, rep.GOMAXPROCS)
		} else if sp := rep.Speedups["ao_search"]; sp < *minPar {
			fmt.Fprintf(os.Stderr, "thermosc-bench: FAIL: ao_search parallel speedup %.2fx below the %.2fx floor (GOMAXPROCS=%d)\n",
				sp, *minPar, rep.GOMAXPROCS)
			os.Exit(1)
		} else {
			fmt.Printf("ao_search parallel speedup %.2fx meets the %.2fx floor\n", sp, *minPar)
		}
	}

	if *basePth != "" {
		if err := gate(rep, *basePth, *cmpOut); err != nil {
			fmt.Fprintf(os.Stderr, "thermosc-bench: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gate passed: no benchmark regressed beyond %.1fx ns, %.1fx allocs, %.1fx bytes vs %s\n",
			maxNsRegression, maxAllocRegression, maxBytesRegression, *basePth)
	} else if *cmpOut != "" {
		if err := writeCompare(*cmpOut, nil, rep); err != nil {
			fmt.Fprintf(os.Stderr, "thermosc-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// run executes the suite through go test and reads the report from its
// output. go test's output is echoed to stderr as it runs, so -out - keeps
// stdout for the report.
func run() (*Report, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchPattern(), "-benchmem", "-count", "1", "thermosc")
	cmd.Stdout = io.MultiWriter(os.Stderr, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	rep, err := parseBench(out.String())
	if err != nil {
		return nil, err
	}
	rep.Schema = Schema
	rep.GoVersion = runtime.Version()
	rep.GOOS, rep.GOARCH = runtime.GOOS, runtime.GOARCH
	rep.CPUs = runtime.NumCPU()
	return rep, nil
}

// benchPattern is the go test -bench pattern that selects the benchmarks
// of every row and the crossover sweep, and no other.
func benchPattern() string {
	var tops []string
	for _, r := range rows {
		top, _, _ := strings.Cut(r.bench, "/")
		if !slices.Contains(tops, top) {
			tops = append(tops, top)
		}
	}
	return "^(" + strings.Join(append(tops, crossoverBench), "|") + ")$"
}

// parseBench reads `go test -bench -benchmem` output into a report: the
// rows in report order, the crossover sweep in run order, the speedups,
// and the GOMAXPROCS the benchmarks ran at. Output that reports a failure,
// lacks a row, or holds an incomplete crossover sweep is an error.
func parseBench(out string) (*Report, error) {
	if strings.Contains(out, "--- FAIL") {
		return nil, errors.New("a benchmark failed")
	}
	rep := &Report{GOMAXPROCS: 1}
	results := map[string]Entry{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name, rep.GOMAXPROCS = name[:i], p
			}
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("%s: iteration count %q", name, f[1])
		}
		e := Entry{N: n}
		var nodes float64
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %s %q", name, f[i+1], f[i])
			}
			switch f[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			case "B/op":
				e.BytesPerOp = int64(v)
			case "nodes":
				nodes = v
			}
		}
		parts := strings.Split(name, "/")
		if len(parts) != 4 || parts[0] != crossoverBench {
			results[name] = e
			continue
		}
		// go test runs a mesh's four cells one after another.
		if k := len(rep.Crossover); k == 0 || rep.Crossover[k-1].Name != parts[1] {
			rep.Crossover = append(rep.Crossover, CrossoverEntry{Name: parts[1]})
		}
		c := &rep.Crossover[len(rep.Crossover)-1]
		switch parts[2] + "/" + parts[3] {
		case "dense/build":
			c.DenseBuildNs, c.Dim = e.NsPerOp, int(nodes)
		case "sparse/build":
			c.SparseBuildNs, c.Dim = e.NsPerOp, int(nodes)
		case "dense/eval":
			c.DenseEvalNs = e.NsPerOp
		case "sparse/eval":
			c.SparseEvalNs = e.NsPerOp
		}
	}

	ns := map[string]float64{}
	for _, r := range rows {
		e, ok := results[r.bench]
		if !ok {
			return nil, fmt.Errorf("no result for row %s (%s)", r.name, r.bench)
		}
		e.Name = r.name
		rep.Benchmarks = append(rep.Benchmarks, e)
		ns[r.name] = e.NsPerOp
	}
	if len(rep.Crossover) == 0 {
		return nil, fmt.Errorf("no result for %s", crossoverBench)
	}
	for _, c := range rep.Crossover {
		if c.Dim == 0 || c.DenseBuildNs == 0 || c.SparseBuildNs == 0 || c.DenseEvalNs == 0 || c.SparseEvalNs == 0 {
			return nil, fmt.Errorf("%s/%s lacks a result", crossoverBench, c.Name)
		}
	}
	rep.Speedups = map[string]float64{}
	for name, r := range speedups {
		if d := ns[r[1]]; d > 0 {
			rep.Speedups[name] = ns[r[0]] / d
		}
	}
	return rep, nil
}

// gate compares cur against the baseline report at baselinePath on all
// three dimensions (time, allocation count, allocated bytes). A missing
// baseline fails like any unreadable one. When cmpOut is non-empty the
// baseline-vs-current markdown table is written there regardless of the
// verdict, so a failing CI run still uploads the numbers that explain it.
func gate(cur *Report, baselinePath, cmpOut string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	if base.Schema != Schema {
		return fmt.Errorf("baseline schema %q, want %q", base.Schema, Schema)
	}
	if cmpOut != "" {
		if err := writeCompare(cmpOut, &base, cur); err != nil {
			return err
		}
	}
	baseBy := make(map[string]Entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	var failures []string
	check := func(name, dim string, cur, base, limit float64) {
		if base <= 0 {
			// No ratio to a zero baseline (a zero-alloc kernel): any
			// allocation at all is the regression.
			fmt.Printf("  gate %-24s %-6s zero baseline (%.0f)\n", name, dim, cur)
			if cur > 0 {
				failures = append(failures,
					fmt.Sprintf("%s %s regressed from a zero baseline to %.0f", name, dim, cur))
			}
			return
		}
		ratio := cur / base
		fmt.Printf("  gate %-24s %-6s %6.2fx of baseline (%.0f vs %.0f)\n", name, dim, ratio, cur, base)
		if ratio > limit {
			failures = append(failures,
				fmt.Sprintf("%s %s regressed %.2fx (limit %.1fx)", name, dim, ratio, limit))
		}
	}
	for _, e := range cur.Benchmarks {
		b, ok := baseBy[e.Name]
		if !ok {
			fmt.Printf("  (no baseline for %s — skipping gate)\n", e.Name)
			continue
		}
		check(e.Name, "ns", e.NsPerOp, b.NsPerOp, maxNsRegression)
		check(e.Name, "allocs", float64(e.AllocsPerOp), float64(b.AllocsPerOp), maxAllocRegression)
		check(e.Name, "bytes", float64(e.BytesPerOp), float64(b.BytesPerOp), maxBytesRegression)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s): %v", len(failures), failures)
	}
	return nil
}

// writeCompare renders the baseline-vs-current comparison as a markdown
// table (the CI workflow artifact). A nil baseline renders the current
// run alone.
func writeCompare(path string, base, cur *Report) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# thermosc bench comparison\n\n")
	fmt.Fprintf(&sb, "current: %s %s/%s, %d CPUs, GOMAXPROCS=%d, %s\n\n",
		cur.GoVersion, cur.GOOS, cur.GOARCH, cur.CPUs, cur.GOMAXPROCS, cur.Schema)
	if base == nil {
		fmt.Fprintf(&sb, "_no baseline_\n\n")
		fmt.Fprintf(&sb, "| benchmark | ns/op | allocs/op | B/op |\n|---|---:|---:|---:|\n")
		for _, e := range cur.Benchmarks {
			fmt.Fprintf(&sb, "| %s | %.0f | %d | %d |\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		}
	} else {
		fmt.Fprintf(&sb, "baseline: %s, %d CPUs, GOMAXPROCS=%d, %s\n\n",
			base.GoVersion, base.CPUs, base.GOMAXPROCS, base.Schema)
		fmt.Fprintf(&sb, "| benchmark | ns/op before | ns/op after | Δ | allocs before | allocs after | B before | B after |\n")
		fmt.Fprintf(&sb, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
		baseBy := make(map[string]Entry, len(base.Benchmarks))
		for _, e := range base.Benchmarks {
			baseBy[e.Name] = e
		}
		for _, e := range cur.Benchmarks {
			b, ok := baseBy[e.Name]
			if !ok {
				fmt.Fprintf(&sb, "| %s | — | %.0f | new | — | %d | — | %d |\n",
					e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
				continue
			}
			delta := "—"
			if b.NsPerOp > 0 {
				delta = fmt.Sprintf("%.2fx", e.NsPerOp/b.NsPerOp)
			}
			fmt.Fprintf(&sb, "| %s | %.0f | %.0f | %s | %d | %d | %d | %d |\n",
				e.Name, b.NsPerOp, e.NsPerOp, delta, b.AllocsPerOp, e.AllocsPerOp, b.BytesPerOp, e.BytesPerOp)
		}
	}
	if len(cur.Speedups) > 0 {
		names := make([]string, 0, len(cur.Speedups))
		for k := range cur.Speedups {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(&sb, "\n")
		for _, k := range names {
			fmt.Fprintf(&sb, "- speedup %s: %.2fx\n", k, cur.Speedups[k])
		}
	}
	if len(cur.Crossover) > 0 {
		fmt.Fprintf(&sb, "\n## dense vs sparse crossover\n\n")
		fmt.Fprintf(&sb, "| platform | dim | dense build | sparse build | dense eval | sparse eval |\n|---|---:|---:|---:|---:|---:|\n")
		crossAt := ""
		for _, c := range cur.Crossover {
			fmt.Fprintf(&sb, "| %s | %d | %.0f | %.0f | %.0f | %.0f |\n",
				c.Name, c.Dim, c.DenseBuildNs, c.SparseBuildNs, c.DenseEvalNs, c.SparseEvalNs)
			if crossAt == "" && c.SparseBuildNs <= c.DenseBuildNs {
				crossAt = fmt.Sprintf("dim %d (%s)", c.Dim, c.Name)
			}
		}
		fmt.Fprintf(&sb, "\n(all ns; build is the one-time backend factorization, eval one warmed stable-peak evaluation)\n")
		if crossAt != "" {
			fmt.Fprintf(&sb, "\nsparse build overtakes dense at %s; the automatic crossover switches at dim %d\n",
				crossAt, thermal.SparseCrossoverDim)
		} else {
			fmt.Fprintf(&sb, "\nsparse build never overtook dense in this sweep; the automatic crossover switches at dim %d\n",
				thermal.SparseCrossoverDim)
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
