package eval

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

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
	// Run is the per-cell campaign configuration. OmitTiming is forced so
	// the rendered matrix is byte-stable; Workers applies within each cell
	// and the rendered output is identical at any worker count.
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
	c.Run.OmitTiming = true
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
	Outcome  Outcome
	// FalseAlarms counts trap trials on which at least one culprit was
	// blamed (the trap's failure mode).
	FalseAlarms int
	// OnsetErrSum/OnsetErrN accumulate |earliest true-culprit onset −
	// injection| over trials with at least one true positive.
	OnsetErrSum float64
	OnsetErrN   int
}

// OnsetErr returns the mean onset error and whether any trial produced one.
func (c CellResult) OnsetErr() (float64, bool) {
	if c.OnsetErrN == 0 {
		return 0, false
	}
	return c.OnsetErrSum / float64(c.OnsetErrN), true
}

// MatrixResult is the full campaign output.
type MatrixResult struct {
	Cells  []CellResult
	Meshes []MeshCase
	// MeshSummaries holds one generated-mesh description per mesh case.
	MeshSummaries []string
	Runs          int
}

// Cell finds a cell by mesh and template name.
func (r *MatrixResult) Cell(mesh, template string) (CellResult, bool) {
	for _, c := range r.Cells {
		if c.Mesh == mesh && c.Template == template {
			return c, true
		}
	}
	return CellResult{}, false
}

// MatrixCampaign runs the (topology-size × fault-template) accuracy matrix:
// for every cell it generates the mesh, binds the template to it, runs the
// existing parallel Campaign over cfg.Runs seeds, and diagnoses every trial
// with FChain (external-factor spread widened to faultlib.MeshExternalSpread
// — mesh depth stretches how long a mesh-wide shift takes to manifest
// everywhere). Cells execute concurrently; results are assembled in cell
// order, so the output is deterministic at any parallelism.
func MatrixCampaign(cfg MatrixConfig) (*MatrixResult, error) {
	cfg = cfg.withDefaults()

	type cellJob struct {
		meshIdx, tplIdx int
	}
	var jobs []cellJob
	for mi := range cfg.Meshes {
		for ti := range cfg.Templates {
			jobs = append(jobs, cellJob{mi, ti})
		}
	}

	meshes := make([]*meshgen.Mesh, len(cfg.Meshes))
	summaries := make([]string, len(cfg.Meshes))
	for i, mc := range cfg.Meshes {
		m, err := meshgen.Generate(mc.Params)
		if err != nil {
			return nil, fmt.Errorf("eval: matrix mesh %s: %w", mc.Name, err)
		}
		meshes[i] = m
		summaries[i] = m.String()
	}

	cells := make([]CellResult, len(jobs))
	errs := make([]error, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				job := jobs[idx]
				cells[idx], errs[idx] = runMatrixCell(
					cfg.Meshes[job.meshIdx].Name, meshes[job.meshIdx],
					cfg.Templates[job.tplIdx], cfg.Runs, cfg.Run)
			}
		}()
	}
	for idx := range jobs {
		jobCh <- idx
	}
	close(jobCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &MatrixResult{
		Cells:         cells,
		Meshes:        cfg.Meshes,
		MeshSummaries: summaries,
		Runs:          cfg.Runs,
	}, nil
}

// runMatrixCell executes one cell: Campaign over the seeds, then FChain
// diagnosis and scoring per trial.
func runMatrixCell(meshName string, m *meshgen.Mesh, tpl faultlib.Template, runs int, run RunConfig) (CellResult, error) {
	bench := Benchmark{
		Name:  meshName,
		Build: func(seed int64) cloudsim.AppSpec { return m.SpecWithTrace(seed) },
	}
	fc := faultlib.FaultCase(tpl, m)
	if tpl.SustainSec > 0 {
		run.SustainSec = tpl.SustainSec
	}
	trials, skipped, err := Campaign(bench, fc, runs, run)
	if err != nil {
		return CellResult{}, fmt.Errorf("eval: matrix cell %s/%s: %w", meshName, tpl.Name, err)
	}
	cell := CellResult{
		Mesh:     meshName,
		Template: tpl.Name,
		Trap:     tpl.Trap,
		Trials:   len(trials),
		Skipped:  skipped,
	}
	scheme := &baseline.FChain{Config: faultlib.MeshProfile(core.Config{})}
	for _, tb := range trials {
		diag, err := scheme.Diagnose(tb.Trial)
		if err != nil {
			return CellResult{}, fmt.Errorf("eval: matrix diagnose %s/%s seed %d: %w", meshName, tpl.Name, tb.Seed, err)
		}
		cell.Outcome.Add(Score(diag.CulpritNames(), tb.Truth))
		if tpl.Trap && len(diag.Culprits) > 0 {
			cell.FalseAlarms++
		}
		truth := make(map[string]bool, len(tb.Truth))
		for _, c := range tb.Truth {
			truth[c] = true
		}
		best, found := int64(0), false
		for _, cu := range diag.Culprits {
			if !truth[cu.Component] {
				continue
			}
			e := cu.Onset - tb.Inject
			if e < 0 {
				e = -e
			}
			if !found || e < best {
				best, found = e, true
			}
		}
		if found {
			cell.OnsetErrSum += float64(best)
			cell.OnsetErrN++
		}
	}
	return cell, nil
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
func MatrixReport(runs int, run RunConfig) (string, error) {
	res, err := MatrixCampaign(MatrixConfig{Runs: runs, Run: run})
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
