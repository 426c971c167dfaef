// Command fchain-bench regenerates the tables and figures of the FChain
// paper's evaluation (ICDCS 2013, §III) on the simulated testbed.
//
// Usage:
//
//	fchain-bench -all                 # every table and figure
//	fchain-bench -exp fig6 -runs 30   # one experiment, 30 runs per fault
//	fchain-bench -exp fig6 -parallel 4 # four trial workers (same output)
//	fchain-bench -list                # list experiment identifiers
//
// Beyond the paper, -exp matrix runs the (topology × fault) accuracy matrix
// over generated microservice meshes; `-exp matrix -runs 2` reproduces the
// committed results_matrix.txt byte for byte, `-all -runs 20` reproduces
// results_runs20.txt and `-exp ablation -runs 20` results_ablation.txt
// (Table II's wall-clock lines excepted).
//
// The paper uses 30-40 runs per fault; the shapes stabilize from ~10.
// Every trial is independently seeded and results are reassembled in seed
// order, so -parallel never changes a report, only how fast it is produced.
// Reports go to stdout and hold no wall-clock time; each experiment's mean
// per-trial localization time and total run time go to stderr.
//
// It measures no performance: `go test -bench '^BenchmarkModule' .
// ./internal/core` times Table II's per-module kernels, and benchmark/
// drives the distributed system end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fchain/scenario"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment to run (fig2..fig12, table1, table2, ablation, matrix)")
		runs     = flag.Int("runs", 10, "fault-injection runs per fault for accuracy experiments")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment identifiers")
		parallel = flag.Int("parallel", 0, "trial workers (0 = all cores, 1 = one at a time; output is identical)")
	)
	flag.Parse()
	opts := scenario.RunOptions{Workers: *parallel}
	if err := run(*exp, *runs, *all, *list, opts); err != nil {
		fmt.Fprintln(os.Stderr, "fchain-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, runs int, all, list bool, opts scenario.RunOptions) error {
	switch {
	case list:
		for _, id := range scenario.Experiments() {
			fmt.Println(id)
		}
		return nil
	case all:
		for i, id := range scenario.Experiments() {
			if i > 0 {
				fmt.Println()
			}
			if err := runOne(id, runs, opts); err != nil {
				return err
			}
		}
		return nil
	case exp != "":
		return runOne(exp, runs, opts)
	default:
		return fmt.Errorf("nothing to do: pass -exp <id>, -all, or -list")
	}
}

func runOne(id string, runs int, opts scenario.RunOptions) error {
	opts.Runs = runs
	start := time.Now()
	r, err := scenario.RunWith(id, opts)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	fmt.Print(r.Text)
	if r.PerTrial > 0 {
		fmt.Fprintf(os.Stderr, "[%s localization wall time: %v per trial (paper: \"within a few seconds\")]\n",
			id, r.PerTrial.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
