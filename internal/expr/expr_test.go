package expr

import (
	"bytes"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 17 {
		t.Fatalf("registry has %d entries: %v", len(names), names)
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Fatalf("experiment %q has no description", n)
		}
	}
	if Describe("nope") != "" {
		t.Fatal("unknown experiment should have empty description")
	}
	var buf bytes.Buffer
	if err := Run("nope", &buf, quickCfg()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func runExperiment(t *testing.T, name string, wants ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(name, &buf, quickCfg()); err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", name, err, buf.String())
	}
	out := buf.String()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("%s output missing %q:\n%s", name, w, out)
		}
	}
	return out
}

func TestMotivation(t *testing.T) {
	out := runExperiment(t, "motivation",
		"Ideal continuous voltages", "Table II", "Table III", "improvement over LNS")
	if !strings.Contains(out, "above") {
		t.Fatalf("Table II ratios should overheat at 20 ms:\n%s", out)
	}
}

func TestFig2(t *testing.T) {
	runExperiment(t, "fig2", "Fig. 2", "both cores", "Stable-status trace")
}

func TestFig3(t *testing.T) {
	runExperiment(t, "fig3", "Fig. 3", "step-up bound", "maximum over sweep")
}

func TestFig4(t *testing.T) {
	runExperiment(t, "fig4", "Fig. 4", "Theorem 1", "Heat-up from ambient")
}

func TestFig5(t *testing.T) {
	runExperiment(t, "fig5", "Fig. 5", "Total reduction")
}

func TestFig6(t *testing.T) {
	runExperiment(t, "fig6", "Fig. 6", "2 cores", "3 cores", "Average AO improvement")
}

func TestFig7(t *testing.T) {
	runExperiment(t, "fig7", "Fig. 7", "saturation")
}

func TestTableV(t *testing.T) {
	runExperiment(t, "tablev", "Table V", "EXS-naive")
}

func TestAblation(t *testing.T) {
	runExperiment(t, "ablation", "Ablation 1", "Ablation 2", "Ablation 3")
}

func TestReactive(t *testing.T) {
	runExperiment(t, "reactive", "Reactive governors", "AO (proactive, guaranteed)", "guard band")
}

func TestReliabilityExperiment(t *testing.T) {
	runExperiment(t, "reliability", "Thermal cycling", "Knee at m =", "fatigue rate")
}

func TestStackedExperiment(t *testing.T) {
	runExperiment(t, "stacked", "stacked 3×1×2", "Theorem 5 holds", "throughput tax")
}

func TestAdmissionExperiment(t *testing.T) {
	runExperiment(t, "admission", "Admission ratio", "admission capacity")
}

func TestRobustnessExperiment(t *testing.T) {
	runExperiment(t, "robustness", "perturbed models", "all-adverse corner", "guard band")
}

func TestScalingExperiment(t *testing.T) {
	runExperiment(t, "scaling", "AO scaling", "4x4", "stays interactive")
}

func TestTDPExperiment(t *testing.T) {
	runExperiment(t, "tdp", "TDP capping", "thermal-capped AO", "headroom")
}

func TestActuationExperiment(t *testing.T) {
	runExperiment(t, "actuation", "Planned vs executed", "overhead budgeted", "forfeits")
}

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var buf bytes.Buffer
	if err := All(&buf, quickCfg()); err != nil {
		t.Fatalf("All: %v\n%s", err, buf.String())
	}
	for _, name := range Names() {
		if !strings.Contains(buf.String(), "==== "+name) {
			t.Fatalf("All output missing section %q", name)
		}
	}
}
