// Command fchain-bench regenerates the tables and figures of the FChain
// paper's evaluation (ICDCS 2013, §III) on the simulated testbed.
//
// Usage:
//
//	fchain-bench -all                 # every table and figure
//	fchain-bench -exp fig6 -runs 30   # one experiment, 30 runs per fault
//	fchain-bench -exp fig6 -parallel 4 # four campaign workers (same output)
//	fchain-bench -list                # list experiment identifiers
//
// Beyond the paper, -exp matrix runs the (topology × fault) accuracy matrix
// over generated microservice meshes; `-exp matrix -runs 2 -omit-timing`
// reproduces the committed results_matrix.txt byte for byte.
//
// The paper uses 30-40 runs per fault; the shapes stabilize from ~10.
// Campaign runs are independently seeded and reassembled in seed order, so
// -parallel never changes a report, only how fast it is produced.
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
		exp        = flag.String("exp", "", "experiment to run (fig2..fig12, table1, table2, ablation, matrix)")
		runs       = flag.Int("runs", 10, "fault-injection runs per fault for accuracy experiments")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiment identifiers")
		parallel   = flag.Int("parallel", 0, "campaign workers (0 = all cores, 1 = serial; output is identical)")
		omitTiming = flag.Bool("omit-timing", false, "drop wall-clock lines so reports diff cleanly across machines")
	)
	flag.Parse()
	opts := scenario.RunOptions{Workers: *parallel, OmitTiming: *omitTiming}
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
		for _, id := range scenario.Experiments() {
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
	out, err := scenario.RunWith(id, opts)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	fmt.Print(out)
	if !opts.OmitTiming {
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
