// Command thermosc-rig drives the closed-loop chip emulator: a virtual
// plant with quantized noisy sensors, DVFS actuation latency, and a
// seed-pinned fault injector, controlled by the AO plan guard or the
// reactive/predictive governors.
//
// Usage:
//
//	thermosc-rig run     [-scenario file.json] [-seed N] [-controller guard|stepwise|predictive]
//	thermosc-rig soak    [-n 20] [-seed 1] [-scenario base.json] [-plan-budget 0]
//	thermosc-rig compare [-scenario file.json] [-seed N]
//
// Every subcommand prints a JSON report to stdout (see docs/RIG.md for
// the schemas). `soak` exits nonzero when any scenario violates
// Tmax + guard band or replays nondeterministically, so CI can gate on
// it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"thermosc/internal/rig"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "thermosc-rig: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermosc-rig: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: thermosc-rig <run|soak|compare> [flags]

  run      one scenario under one controller, print the run report
  soak     N randomized fault scenarios under the guarded AO plan,
           each replayed twice; exit 1 on any violation or trace mismatch
  compare  one scenario under plan-guard, step-wise, and predictive
           controllers with identical fault streams

Run "thermosc-rig <subcommand> -h" for flags.
`)
}

// loadScenario reads a scenario JSON file, or starts from the zero
// scenario (all defaults, no faults) when path is empty. A nonzero seed
// flag overrides the file's seed.
func loadScenario(path string, seed int64) (*rig.Scenario, error) {
	sc := &rig.Scenario{}
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sc, err = rig.DecodeScenario(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if seed != 0 {
		sc.Seed = seed
	}
	return sc, nil
}

func emit(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scPath := fs.String("scenario", "", "scenario JSON file (default: zero-fault defaults)")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 keeps the file's)")
	ctrlName := fs.String("controller", "guard", "controller: guard | stepwise | predictive")
	fs.Parse(args)

	sc, err := loadScenario(*scPath, *seed)
	if err != nil {
		return err
	}
	r, err := rig.New(sc)
	if err != nil {
		return err
	}
	var ctrl rig.Controller
	switch *ctrlName {
	case "guard":
		plan, err := rig.PlanAO(r)
		if err != nil {
			return err
		}
		ctrl, err = rig.GuardFor(r.Scenario(), plan, r.Levels())
		if err != nil {
			return err
		}
	case "stepwise":
		ctrl = rig.StepWiseFor(r)
	case "predictive":
		ctrl = rig.PredictiveFor(r)
	default:
		return fmt.Errorf("unknown controller %q (want guard, stepwise, or predictive)", *ctrlName)
	}
	rep, err := r.Run(ctrl)
	if err != nil {
		return err
	}
	return emit(rep)
}

func cmdSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	scPath := fs.String("scenario", "", "base scenario JSON template (default: built-in defaults)")
	n := fs.Int("n", 20, "number of randomized fault scenarios")
	seed := fs.Int64("seed", 1, "soak derivation seed")
	planBudget := fs.Duration("plan-budget", 0,
		"starve the planner: swap to a replan solved under this wall-clock budget at the horizon midpoint (0 = full planning)")
	fs.Parse(args)

	var base *rig.Scenario
	if *scPath != "" {
		sc, err := loadScenario(*scPath, 0)
		if err != nil {
			return err
		}
		base = sc
	}
	var rep *rig.SoakReport
	var err error
	if *planBudget > 0 {
		rep, err = rig.SoakStarved(base, *n, *seed, *planBudget)
	} else {
		rep, err = rig.Soak(base, *n, *seed)
	}
	if err != nil {
		return err
	}
	if err := emit(rep); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("soak failed: %d violation(s), %d nondeterministic trace(s)",
			rep.Violations, rep.NonDeterministic)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	scPath := fs.String("scenario", "", "scenario JSON file (default: zero-fault defaults)")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 keeps the file's)")
	fs.Parse(args)

	sc, err := loadScenario(*scPath, *seed)
	if err != nil {
		return err
	}
	rep, err := rig.Compare(sc)
	if err != nil {
		return err
	}
	return emit(rep)
}
