package eval

import (
	"fmt"
	"strings"

	"fchain/internal/baseline"
	"fchain/internal/core"
	"fchain/internal/depgraph"
)

// ablationColumns are FChain configurations with one design choice removed
// or altered.
func ablationColumns() []Column {
	fchain := func(name string, cfg core.Config) Column {
		return Column{Name: name, Scheme: &baseline.FChain{Config: cfg}}
	}
	noDeps := fchain("no-dependency", core.Config{})
	noDeps.Trial = func(tr baseline.Trial) baseline.Trial {
		tr.Deps = depgraph.NewGraph()
		return tr
	}
	return []Column{
		fchain("full", core.Config{}),
		// A near-zero fixed threshold admits every outlier change point:
		// the pipeline without the predictability filter.
		fchain("no-predictability-filter", core.Config{FixedThreshold: 1e-9}),
		fchain("no-rollback", core.Config{DisableRollback: true}),
		noDeps,
		fchain("no-smoothing", core.Config{SmoothWindow: 1}),
		fchain("adaptive-lookback", core.Config{AdaptiveLookBack: true}),
		fchain("adaptive-smoothing", core.Config{AdaptiveSmoothing: true}),
	}
}

// AblationTable quantifies the contribution of each FChain design choice
// (an extension beyond the paper's figures): every variant runs on the same
// trials of three representative faults — the RUBiS CpuHog at the database
// (back-pressure), the System S MemLeak (no dependency information
// available), and the Hadoop concurrent DiskHog (slow manifestation, W=100
// here so the adaptive look-back variant has room to help).
func AblationTable(runs int, cfg RunConfig) (Report, error) {
	bs := Benchmarks()
	diskhog := bs[2].Faults[2]
	diskhog.LookBack = 0 // deliberately leave W at the 100 s default
	s := Sweep{
		Rows: []Row{
			{Bench: bs[0], Fault: bs[0].Faults[1]}, // rubis cpuhog
			{Bench: bs[1], Fault: bs[1].Faults[0]}, // systems memleak
			{Bench: bs[2], Fault: diskhog},         // hadoop concurrent-diskhog at W=100
		},
		Columns: ablationColumns(),
		Runs:    runs,
		Config:  cfg,
	}
	return s.report(fmt.Sprintf("Ablation: contribution of FChain design choices, %d runs per fault\n", runs),
		"%s/%s (%d trials, %d skipped):\n",
		func(sb *strings.Builder, rs []SchemeResult) { writePoints(sb, 26, rs) })
}
