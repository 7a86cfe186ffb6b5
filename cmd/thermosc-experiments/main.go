// Command thermosc-experiments regenerates the paper's tables and figures
// on the repository's calibrated substrate.
//
// Usage:
//
//	thermosc-experiments [-run NAME|all] [-quick] [-seed N] [-list]
//
// Experiment names follow the paper artifacts: motivation (Tables II–III),
// fig2..fig7, tablev, plus the repository's ablation studies.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"thermosc/internal/expr"
)

func main() {
	var (
		run   = flag.String("run", "all", "experiment to run (or 'all')")
		quick = flag.Bool("quick", false, "reduced sweep sizes (same shapes, ~10x faster)")
		seed  = flag.Int64("seed", 1, "seed for the random schedule generators")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range expr.Names() {
			fmt.Printf("%-12s %s\n", name, expr.Describe(name))
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	cfg := expr.Config{Quick: *quick, Seed: *seed}

	var err error
	if *run == "all" {
		err = expr.All(w, cfg)
	} else {
		err = expr.Run(*run, w, cfg)
	}
	if err != nil {
		w.Flush()
		fmt.Fprintln(os.Stderr, "thermosc-experiments:", err)
		os.Exit(1)
	}
}
