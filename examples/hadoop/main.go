// Hadoop diagnosis with online validation: inject the paper's concurrent
// CpuHog (an infinite-loop bug in every map task), localize all three map
// nodes from the progress-stall SLO violation, then run online pinpointing
// validation — scaling each culprit's implicated resource on a cloned
// system and watching whether the SLO clears (paper §II-A, Fig. 11).
//
//	go run ./examples/hadoop
package main

import (
	"fmt"
	"log"

	"fchain"
	"fchain/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := scenario.Hadoop(2)
	if err != nil {
		return err
	}

	// Concurrent fault: the infinite-loop bug hits all three map tasks.
	const inject = 1500
	maps := []string{"map1", "map2", "map3"}
	if err := sys.Inject(scenario.NewCPUHog(inject, 1.97, maps...)); err != nil {
		return err
	}
	sys.RunUntil(inject + 600)
	tv, found := sys.FirstViolation(inject, 1)
	if !found {
		return fmt.Errorf("no progress stall detected")
	}
	fmt.Printf("job progress stalled; violation flagged at t=%d (fault at t=%d)\n", tv, inject)

	loc := fchain.NewLocalizer(fchain.DefaultConfig(), sys.Components())
	for _, comp := range sys.Components() {
		for _, kind := range fchain.Kinds() {
			series, err := sys.Series(comp, kind)
			if err != nil {
				return err
			}
			for i := 0; i < series.Len() && series.TimeAt(i) <= tv; i++ {
				if err := loc.Observe(comp, series.TimeAt(i), kind, series.At(i)); err != nil {
					return err
				}
			}
		}
	}
	deps := fchain.DiscoverDependencies(sys.DependencyTrace(600, 3), fchain.DiscoverConfig{})
	diag := loc.Localize(tv, deps)
	fmt.Println("diagnosis:", diag)

	// Online pinpointing validation: scale each culprit's implicated
	// resources on a clone and watch the SLO. True culprits confirm;
	// false alarms don't.
	results, err := fchain.Validate(func() (fchain.Adjuster, error) {
		return sys.Clone(), nil
	}, diag)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("  validate %-6s implicated=%v confirmed=%v (SLO metric %.3f when omitted)\n",
			r.Culprit.Component, r.Culprit.Metrics, r.Confirmed, r.Metric)
	}
	fmt.Println("after validation:", fchain.ApplyValidation(diag, results))
	return nil
}
