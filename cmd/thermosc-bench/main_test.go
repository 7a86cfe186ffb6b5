package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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

func defaultLimits() limits { return limits{ns: 2.0, allocs: 1.5, bytes: 1.5} }

// The first gated run has no baseline: it must write one and pass, and
// the written baseline must gate the identical report cleanly.
func TestGateBootstrapsMissingBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ao.json")
	cur := syntheticReport(1000)

	bootstrapped, err := gate(cur, path, defaultLimits(), "")
	if err != nil {
		t.Fatalf("missing baseline failed the gate: %v", err)
	}
	if !bootstrapped {
		t.Fatal("missing baseline did not bootstrap")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no baseline written: %v", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("written baseline is not valid JSON: %v", err)
	}
	if base.Schema != Schema || len(base.Benchmarks) != len(cur.Benchmarks) {
		t.Fatalf("written baseline does not match the report: %+v", base)
	}

	bootstrapped, err = gate(cur, path, defaultLimits(), "")
	if err != nil {
		t.Fatalf("identical report failed its own baseline: %v", err)
	}
	if bootstrapped {
		t.Fatal("existing baseline re-bootstrapped")
	}
}

// Regressions beyond the limit must fail on each dimension independently;
// within the limit must pass; new/missing entries never fail the gate.
func TestGateRegressionDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ao.json")
	if _, err := gate(syntheticReport(1000), path, defaultLimits(), ""); err != nil {
		t.Fatal(err)
	}

	if _, err := gate(syntheticReport(1900), path, defaultLimits(), ""); err != nil {
		t.Fatalf("1.9x inside a 2x limit failed: %v", err)
	}
	if _, err := gate(syntheticReport(2500), path, defaultLimits(), ""); err == nil {
		t.Fatal("2.5x ns regression passed a 2x gate")
	} else if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("gate error does not name the regression: %v", err)
	}

	// Allocation-count regression at identical wall time must fail.
	worse := syntheticReport(1000)
	worse.Benchmarks[0].AllocsPerOp = 1000 // 1.67x of 600
	if _, err := gate(worse, path, defaultLimits(), ""); err == nil {
		t.Fatal("1.67x allocs/op regression passed a 1.5x gate")
	} else if !strings.Contains(err.Error(), "allocs") {
		t.Fatalf("alloc regression not named: %v", err)
	}

	// Bytes regression at identical wall time and alloc count must fail.
	fat := syntheticReport(1000)
	fat.Benchmarks[1].BytesPerOp = 4096 // 8x of 512
	if _, err := gate(fat, path, defaultLimits(), ""); err == nil {
		t.Fatal("8x bytes/op regression passed a 1.5x gate")
	} else if !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("bytes regression not named: %v", err)
	}

	// A zero-alloc baseline has no ratio; its first allocation must fail.
	leaky := syntheticReport(1000)
	leaky.Benchmarks[2].AllocsPerOp, leaky.Benchmarks[2].BytesPerOp = 1, 16
	if _, err := gate(leaky, path, defaultLimits(), ""); err == nil {
		t.Fatal("allocation on a zero-alloc baseline passed the gate")
	} else if !strings.Contains(err.Error(), "zero baseline") {
		t.Fatalf("zero-baseline regression not named: %v", err)
	}

	grown := syntheticReport(1000)
	grown.Benchmarks = append(grown.Benchmarks, Entry{Name: "brand_new", N: 1, NsPerOp: 1})
	if _, err := gate(grown, path, defaultLimits(), ""); err != nil {
		t.Fatalf("new benchmark without a baseline entry failed the gate: %v", err)
	}

	// A corrupt baseline is a hard error, not a bootstrap.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gate(syntheticReport(1000), bad, defaultLimits(), ""); err == nil {
		t.Fatal("corrupt baseline accepted")
	}
	wrongSchema := filepath.Join(t.TempDir(), "schema.json")
	if err := os.WriteFile(wrongSchema, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gate(syntheticReport(1000), wrongSchema, defaultLimits(), ""); err == nil {
		t.Fatal("wrong-schema baseline accepted")
	}
}

// A v1-schema baseline (pre-gomaxprocs, same per-entry fields) must still
// gate a v2 run — the bootstrap that seeded CI predates the schema bump.
func TestGateAcceptsV1Baseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ao.json")
	v1 := syntheticReport(1000)
	v1.Schema = SchemaV1
	b, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gate(syntheticReport(1100), path, defaultLimits(), ""); err != nil {
		t.Fatalf("v1 baseline rejected: %v", err)
	}
	if _, err := gate(syntheticReport(9000), path, defaultLimits(), ""); err == nil {
		t.Fatal("regression against a v1 baseline not caught")
	}
}

// The comparison artifact must be written (with both runs' numbers) even
// when the gate fails — a failing CI run still needs the explanation.
func TestCompareTableWrittenOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_ao.json")
	cmp := filepath.Join(dir, "compare.md")
	if _, err := gate(syntheticReport(1000), path, defaultLimits(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := gate(syntheticReport(5000), path, defaultLimits(), cmp); err == nil {
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
