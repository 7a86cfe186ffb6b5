package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"thermosc/internal/rig"
)

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	old := os.Stdout
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wr
	done := make(chan []byte)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := rd.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- buf
	}()
	ferr := fn()
	wr.Close()
	os.Stdout = old
	out := <-done
	rd.Close()
	return out, ferr
}

func writeScenario(t *testing.T, sc *rig.Scenario) string {
	t.Helper()
	data, err := rig.EncodeScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func shortScenario(t *testing.T) string {
	sc := &rig.Scenario{Seed: 7, HorizonS: 1,
		Sensor:   rig.SensorFaults{NoiseStdK: 0.5, DropoutProb: 0.01},
		Actuator: rig.ActuatorFaults{LatencyS: 1e-3},
	}
	if err := sc.Canon(); err != nil {
		t.Fatal(err)
	}
	return writeScenario(t, sc)
}

func TestCmdRunControllers(t *testing.T) {
	path := shortScenario(t)
	for _, ctrl := range []string{"guard", "stepwise", "predictive"} {
		out, err := capture(t, func() error {
			return cmdRun([]string{"-scenario", path, "-controller", ctrl})
		})
		if err != nil {
			t.Fatalf("%s: %v", ctrl, err)
		}
		var rep rig.Report
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("%s: bad report JSON: %v\n%s", ctrl, err, out)
		}
		if rep.Steps != 100 || rep.TraceSHA256 == "" {
			t.Fatalf("%s: report %+v", ctrl, rep)
		}
	}
	if err := cmdRun([]string{"-scenario", path, "-controller", "nope"}); err == nil {
		t.Fatal("unknown controller accepted")
	}
	if err := cmdRun([]string{"-scenario", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

func TestCmdRunSeedOverride(t *testing.T) {
	path := shortScenario(t)
	run := func(seed string) rig.Report {
		out, err := capture(t, func() error {
			return cmdRun([]string{"-scenario", path, "-seed", seed})
		})
		if err != nil {
			t.Fatal(err)
		}
		var rep rig.Report
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run("99"), run("100")
	if a.Seed != 99 || b.Seed != 100 {
		t.Fatalf("seed override ignored: %d/%d", a.Seed, b.Seed)
	}
	if a.TraceSHA256 == b.TraceSHA256 {
		t.Fatal("different seeds, identical traces")
	}
}

func TestCmdSoakPassesAndIsDeterministic(t *testing.T) {
	base := &rig.Scenario{HorizonS: 1}
	path := writeScenario(t, base)
	run := func() rig.SoakReport {
		out, err := capture(t, func() error {
			return cmdSoak([]string{"-scenario", path, "-n", "3", "-seed", "5"})
		})
		if err != nil {
			t.Fatal(err)
		}
		var rep rig.SoakReport
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !a.Pass || a.N != 3 {
		t.Fatalf("soak report %+v", a)
	}
	for i := range a.Scenarios {
		if a.Scenarios[i].Report.TraceSHA256 != b.Scenarios[i].Report.TraceSHA256 {
			t.Fatalf("soak scenario %d not reproducible across invocations", i)
		}
	}
}

func TestCmdCompare(t *testing.T) {
	path := shortScenario(t)
	out, err := capture(t, func() error {
		return cmdCompare([]string{"-scenario", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep rig.CompareReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("bad compare JSON: %v", err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("%d runs", len(rep.Runs))
	}
}

func TestLoadScenarioDefaults(t *testing.T) {
	sc, err := loadScenario("", 123)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 123 {
		t.Fatalf("seed %d", sc.Seed)
	}
	if _, err := loadScenario(filepath.Join(t.TempDir(), "nope.json"), 0); err == nil {
		t.Fatal("missing file accepted")
	}
}
