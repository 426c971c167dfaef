package eval

import (
	"fmt"
	"strings"
	"time"

	"fchain/internal/baseline"
	"fchain/internal/cloudsim"
	"fchain/internal/core"
	"fchain/internal/faultlib"
	"fchain/internal/meshgen"
)

// MeshCase is one topology-size row group of the matrix: a named set of
// generator knobs.
type MeshCase struct {
	Name   string
	Params meshgen.Params
}

// MatrixConfig drives MatrixCampaign.
type MatrixConfig struct {
	// Meshes are the topology rows (default: the three committed sizes).
	Meshes []MeshCase
	// Templates are the fault columns (default: the full faultlib catalog).
	Templates []faultlib.Template
	// Runs is the number of seeded trials per cell (default 2).
	Runs int
	// Run configures every trial; Workers bounds the trials the whole
	// matrix runs at once, and the rendered output is identical at any
	// worker count.
	Run RunConfig
}

func (c MatrixConfig) withDefaults() MatrixConfig {
	if len(c.Meshes) == 0 {
		c.Meshes = DefaultMeshCases()
	}
	if len(c.Templates) == 0 {
		c.Templates = faultlib.Templates()
	}
	if c.Runs <= 0 {
		c.Runs = 2
	}
	// Injection must land after at least one full diurnal workload period
	// (1800 s): context calibration can only treat the generator's periodic
	// drift as "seen before" once a whole cycle is inside the retained
	// history, and injecting mid-first-cycle plants spurious pre-fault
	// onsets that steal the chain's source slot. A bounded horizon keeps
	// the full matrix tractable; the slowest template (slow-leak, 350 s
	// window) still fits.
	if c.Run.InjectMin <= 0 {
		c.Run.InjectMin = 2000
	}
	if c.Run.InjectMax <= c.Run.InjectMin {
		c.Run.InjectMax = c.Run.InjectMin + 100
	}
	if c.Run.Horizon <= 0 {
		c.Run.Horizon = 700
	}
	// Dependency discovery samples one request journey roughly every 1.3 s
	// and needs ~10 inbound flows per component before it trusts edges
	// (DiscoverConfig.MinFlows); a 400-component mesh's widest layer holds
	// ~160 components, so a mesh-scale capture must run far longer than the
	// paper apps' 600 s. Discovery is offline and cached in the paper, so a
	// long capture is free.
	if c.Run.DepTraceSec <= 0 {
		c.Run.DepTraceSec = 2400
	}
	return c
}

// DefaultMeshCases returns the three committed topology sizes of
// results_matrix.txt.
func DefaultMeshCases() []MeshCase {
	return []MeshCase{
		{Name: "mesh-n100", Params: meshgen.Params{Components: 100, FanOut: 3, Depth: 5, CycleProb: 0.05, Seed: 11}},
		{Name: "mesh-n200", Params: meshgen.Params{Components: 200, FanOut: 3, Depth: 6, CycleProb: 0.05, Seed: 12}},
		{Name: "mesh-n400", Params: meshgen.Params{Components: 400, FanOut: 4, Depth: 6, CycleProb: 0.05, Seed: 13}},
	}
}

// CellResult is one (mesh × template) cell of the matrix.
type CellResult struct {
	Mesh     string
	Template string
	Trap     bool
	Trials   int // completed (violating) trials
	Skipped  int // runs without an SLO violation
	Cell
}

// MatrixResult is the full campaign output.
type MatrixResult struct {
	Cells  []CellResult
	Meshes []MeshCase
	// MeshSummaries holds one generated-mesh description per mesh case.
	MeshSummaries []string
	Runs          int
	perTrial      time.Duration
}

// MatrixCampaign runs the (topology-size × fault-template) accuracy matrix
// as one sweep: a row per (mesh, template) cell, its one column FChain with
// the mesh profile (external-factor spread widened to
// faultlib.MeshExternalSpread — mesh depth stretches how long a mesh-wide
// shift takes to manifest everywhere).
func MatrixCampaign(cfg MatrixConfig) (*MatrixResult, error) {
	cfg = cfg.withDefaults()
	res := &MatrixResult{Meshes: cfg.Meshes, Runs: cfg.Runs}
	s := Sweep{
		Columns: schemeColumns(&baseline.FChain{Config: faultlib.MeshProfile(core.Config{})}),
		Runs:    cfg.Runs,
		Config:  cfg.Run,
	}
	for _, mc := range cfg.Meshes {
		m, err := meshgen.Generate(mc.Params)
		if err != nil {
			return nil, fmt.Errorf("eval: matrix mesh %s: %w", mc.Name, err)
		}
		res.MeshSummaries = append(res.MeshSummaries, m.String())
		bench := Benchmark{
			Name:  mc.Name,
			Build: func(seed int64) cloudsim.AppSpec { return m.SpecWithTrace(seed) },
		}
		for _, tpl := range cfg.Templates {
			s.Rows = append(s.Rows, Row{Bench: bench, Fault: faultlib.FaultCase(tpl, m), SustainSec: tpl.SustainSec})
			res.Cells = append(res.Cells, CellResult{Mesh: mc.Name, Template: tpl.Name, Trap: tpl.Trap})
		}
	}
	sr, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("eval: matrix: %w", err)
	}
	for i, rr := range sr.Rows {
		c := &res.Cells[i]
		c.Trials, c.Skipped, c.Cell = rr.Trials, rr.Skipped, rr.Cells[0]
	}
	res.perTrial = sr.PerTrial
	return res, nil
}

// Render formats the matrix as the committed league-style artifact. Every
// number is a pure function of (meshes, templates, runs, seeds), so the
// output is byte-stable across machines and worker counts.
func (r *MatrixResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(topology x fault) accuracy matrix — FChain on generated meshes\n")
	fmt.Fprintf(&sb, "runs per cell: %d (seeds 1..%d); external-factor spread %ds\n",
		r.Runs, r.Runs, faultlib.MeshExternalSpread)
	fmt.Fprintf(&sb, "traps are scored on silence: recall is vacuously 1, every blamed culprit a false positive\n")
	for i, mc := range r.Meshes {
		fmt.Fprintf(&sb, "\n%s (%s)\n", mc.Name, mc.Params)
		fmt.Fprintf(&sb, "  %s\n", r.MeshSummaries[i])
		for _, c := range r.Cells {
			if c.Mesh != mc.Name {
				continue
			}
			if c.Trap {
				fmt.Fprintf(&sb, "  %-20s [trap] false-alarms=%d/%d", c.Template, c.FalseAlarms, c.Trials)
				fmt.Fprintf(&sb, " (fp=%d, trials=%d, skipped=%d)\n", c.Outcome.FP, c.Trials, c.Skipped)
				continue
			}
			fmt.Fprintf(&sb, "  %-20s P=%.2f R=%.2f", c.Template, c.Outcome.Precision(), c.Outcome.Recall())
			if e, ok := c.OnsetErr(); ok {
				fmt.Fprintf(&sb, " onset-err=%.1fs", e)
			} else {
				fmt.Fprintf(&sb, " onset-err=n/a ")
			}
			fmt.Fprintf(&sb, " (tp=%d fp=%d fn=%d, trials=%d, skipped=%d)\n",
				c.Outcome.TP, c.Outcome.FP, c.Outcome.FN, c.Trials, c.Skipped)
		}
	}
	return sb.String()
}

// MatrixReport runs the default matrix and renders it — the entry point the
// scenario facade and cmd/fchain-bench use to (re)generate
// results_matrix.txt.
func MatrixReport(runs int, run RunConfig) (Report, error) {
	res, err := MatrixCampaign(MatrixConfig{Runs: runs, Run: run})
	if err != nil {
		return Report{}, err
	}
	return Report{Text: res.Render(), PerTrial: res.perTrial}, nil
}
