package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func syntheticReport(ns float64) *Report {
	return &Report{
		Schema:     Schema,
		GOMAXPROCS: 4,
		Benchmarks: []Entry{
			{Name: "ao_search_seq", N: 10, NsPerOp: 4 * ns, AllocsPerOp: 600, BytesPerOp: 200_000},
			{Name: "peak_eval_engine", N: 100, NsPerOp: ns, AllocsPerOp: 4, BytesPerOp: 512},
			{Name: "peak_eval_composed", N: 100, NsPerOp: ns / 4},
		},
	}
}

// writeBaseline writes rep to path as the gate's baseline.
func writeBaseline(t *testing.T, path string, rep *Report) {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A missing baseline fails the gate and writes nothing in its place:
// -out is what writes a fresh baseline.
func TestGateFailsOnMissingBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ao.json")
	if err := gate(syntheticReport(1000), path, ""); err == nil {
		t.Fatal("missing baseline passed the gate")
	} else if !strings.Contains(err.Error(), "reading baseline") {
		t.Fatalf("gate error does not name the baseline: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("gate wrote a baseline: %v", err)
	}
}

// Regressions beyond the limit must fail on each dimension independently;
// within the limit must pass; new/missing entries never fail the gate.
func TestGateRegressionDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ao.json")
	writeBaseline(t, path, syntheticReport(1000))

	if err := gate(syntheticReport(1900), path, ""); err != nil {
		t.Fatalf("1.9x inside a 2x limit failed: %v", err)
	}
	if err := gate(syntheticReport(2500), path, ""); err == nil {
		t.Fatal("2.5x ns regression passed a 2x gate")
	} else if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("gate error does not name the regression: %v", err)
	}

	// Allocation-count regression at identical wall time must fail.
	worse := syntheticReport(1000)
	worse.Benchmarks[0].AllocsPerOp = 1000 // 1.67x of 600
	if err := gate(worse, path, ""); err == nil {
		t.Fatal("1.67x allocs/op regression passed a 1.5x gate")
	} else if !strings.Contains(err.Error(), "allocs") {
		t.Fatalf("alloc regression not named: %v", err)
	}

	// Bytes regression at identical wall time and alloc count must fail.
	fat := syntheticReport(1000)
	fat.Benchmarks[1].BytesPerOp = 4096 // 8x of 512
	if err := gate(fat, path, ""); err == nil {
		t.Fatal("8x bytes/op regression passed a 1.5x gate")
	} else if !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("bytes regression not named: %v", err)
	}

	// A zero-alloc baseline has no ratio; its first allocation must fail.
	leaky := syntheticReport(1000)
	leaky.Benchmarks[2].AllocsPerOp, leaky.Benchmarks[2].BytesPerOp = 1, 16
	if err := gate(leaky, path, ""); err == nil {
		t.Fatal("allocation on a zero-alloc baseline passed the gate")
	} else if !strings.Contains(err.Error(), "zero baseline") {
		t.Fatalf("zero-baseline regression not named: %v", err)
	}

	grown := syntheticReport(1000)
	grown.Benchmarks = append(grown.Benchmarks, Entry{Name: "brand_new", N: 1, NsPerOp: 1})
	if err := gate(grown, path, ""); err != nil {
		t.Fatalf("new benchmark without a baseline entry failed the gate: %v", err)
	}

	// A corrupt or wrong-schema baseline is a hard error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(syntheticReport(1000), bad, ""); err == nil {
		t.Fatal("corrupt baseline accepted")
	}
	wrongSchema := filepath.Join(t.TempDir(), "schema.json")
	if err := os.WriteFile(wrongSchema, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(syntheticReport(1000), wrongSchema, ""); err == nil {
		t.Fatal("wrong-schema baseline accepted")
	}
}

// The comparison artifact must be written (with both runs' numbers) even
// when the gate fails — a failing CI run still needs the explanation.
func TestCompareTableWrittenOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_ao.json")
	cmp := filepath.Join(dir, "compare.md")
	writeBaseline(t, path, syntheticReport(1000))
	if err := gate(syntheticReport(5000), path, cmp); err == nil {
		t.Fatal("5x regression passed")
	}
	data, err := os.ReadFile(cmp)
	if err != nil {
		t.Fatalf("comparison table not written on gate failure: %v", err)
	}
	s := string(data)
	for _, want := range []string{"ao_search_seq", "| benchmark |", "4000", "20000", "GOMAXPROCS=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("comparison table missing %q:\n%s", want, s)
		}
	}
}

// cannedBench is `go test -bench -benchmem` output for every row and one
// crossover mesh; {P} stands for the -P name suffix.
const cannedBench = `goos: linux
goarch: amd64
pkg: thermosc
cpu: AMD EPYC 7B13
BenchmarkAOSearch/seq{P}                 	     594	   1919521 ns/op	  187397 B/op	     594 allocs/op
BenchmarkAOSearch/par{P}                 	     619	   1984062 ns/op	  187396 B/op	     594 allocs/op
BenchmarkAOAnytimeHalfBudget{P}          	     568	   1802255 ns/op	  167011 B/op	     436 allocs/op
BenchmarkPeakEval/classic{P}             	   60372	     20452 ns/op	   14304 B/op	      91 allocs/op
BenchmarkPeakEval/engine{P}              	   80685	     15484 ns/op	   12288 B/op	      82 allocs/op
BenchmarkPeakEval/composed{P}            	  260540	      4572 ns/op	       0 B/op	       0 allocs/op
BenchmarkPeakEvalSparse{P}               	     200	   6083683 ns/op	  337472 B/op	     131 allocs/op
BenchmarkServeBurst{P}                   	      22	  54512724 ns/op	 1236683 B/op	    9169 allocs/op
BenchmarkAOSearch256{P}                  	       2	 936462124 ns/op	12262892 B/op	   10726 allocs/op
BenchmarkCrossover/mesh-4x4/dense/build{P} 	     891	   1342352 ns/op	        33.00 nodes	  901240 B/op	     412 allocs/op
BenchmarkCrossover/mesh-4x4/dense/eval{P}  	   37520	     31981 ns/op	    5376 B/op	      46 allocs/op
BenchmarkCrossover/mesh-4x4/sparse/build{P}	   27841	     43036 ns/op	        33.00 nodes	   61504 B/op	     203 allocs/op
BenchmarkCrossover/mesh-4x4/sparse/eval{P} 	    3226	    372271 ns/op	   20736 B/op	     118 allocs/op
PASS
ok  	thermosc	52.345s
`

func TestParseBench(t *testing.T) {
	wantRows := []Entry{
		{Name: "ao_search_seq", N: 594, NsPerOp: 1919521, AllocsPerOp: 594, BytesPerOp: 187397},
		{Name: "ao_search_par", N: 619, NsPerOp: 1984062, AllocsPerOp: 594, BytesPerOp: 187396},
		{Name: "ao_anytime_halfbudget", N: 568, NsPerOp: 1802255, AllocsPerOp: 436, BytesPerOp: 167011},
		{Name: "peak_eval_classic", N: 60372, NsPerOp: 20452, AllocsPerOp: 91, BytesPerOp: 14304},
		{Name: "peak_eval_engine", N: 80685, NsPerOp: 15484, AllocsPerOp: 82, BytesPerOp: 12288},
		{Name: "peak_eval_composed", N: 260540, NsPerOp: 4572},
		{Name: "peak_eval_sparse_256", N: 200, NsPerOp: 6083683, AllocsPerOp: 131, BytesPerOp: 337472},
		{Name: "serve_burst", N: 22, NsPerOp: 54512724, AllocsPerOp: 9169, BytesPerOp: 1236683},
		{Name: "ao_search_256", N: 2, NsPerOp: 936462124, AllocsPerOp: 10726, BytesPerOp: 12262892},
	}
	wantCross := []CrossoverEntry{{
		Name: "mesh-4x4", Dim: 33,
		DenseBuildNs: 1342352, SparseBuildNs: 43036,
		DenseEvalNs: 31981, SparseEvalNs: 372271,
	}}
	for _, tc := range []struct {
		suffix string
		procs  int
	}{{"-2", 2}, {"", 1}} {
		rep, err := parseBench(strings.ReplaceAll(cannedBench, "{P}", tc.suffix))
		if err != nil {
			t.Fatalf("suffix %q: %v", tc.suffix, err)
		}
		if !reflect.DeepEqual(rep.Benchmarks, wantRows) {
			t.Errorf("suffix %q: rows\n got %+v\nwant %+v", tc.suffix, rep.Benchmarks, wantRows)
		}
		if !reflect.DeepEqual(rep.Crossover, wantCross) {
			t.Errorf("suffix %q: crossover\n got %+v\nwant %+v", tc.suffix, rep.Crossover, wantCross)
		}
		if rep.GOMAXPROCS != tc.procs {
			t.Errorf("suffix %q: gomaxprocs %d, want %d", tc.suffix, rep.GOMAXPROCS, tc.procs)
		}
		if got, want := rep.Speedups["peak_eval_composed"], 20452.0/4572; got != want {
			t.Errorf("suffix %q: peak_eval_composed speedup %v, want %v", tc.suffix, got, want)
		}
	}

	// A missing row and a missing crossover cell are errors.
	for drop, want := range map[string]string{
		"BenchmarkServeBurst-2":                     "serve_burst",
		"BenchmarkCrossover/mesh-4x4/sparse/eval-2": "mesh-4x4",
	} {
		var kept []string
		for _, line := range strings.Split(strings.ReplaceAll(cannedBench, "{P}", "-2"), "\n") {
			if !strings.HasPrefix(line, drop) {
				kept = append(kept, line)
			}
		}
		if _, err := parseBench(strings.Join(kept, "\n")); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("output without %s: err %v", drop, err)
		}
	}
	failed := strings.Replace(strings.ReplaceAll(cannedBench, "{P}", ""), "PASS", "--- FAIL: BenchmarkAOSearch256\n    bench_test.go:370: 256-core AO lost feasibility\nFAIL", 1)
	if _, err := parseBench(failed); err == nil {
		t.Error("output with a failed benchmark parsed")
	}
}
