// Package scenario exposes the FChain paper's simulated evaluation
// testbed: the three benchmark applications (RUBiS, IBM System S, Hadoop)
// as discrete-time simulations, the paper's fault catalog, and the
// experiment harness that regenerates every table and figure of §III.
//
// The simulations stand in for the paper's Xen/VCL deployment: they produce
// the same six per-VM metric streams FChain consumes, shaped by realistic
// workload traces, queueing, and back-pressure, and they support the
// per-component resource scaling that online pinpointing validation needs.
package scenario

import (
	"fmt"
	"math/rand"
	"os"

	"fchain/internal/apps"
	"fchain/internal/cloudsim"
	"fchain/internal/eval"
	"fchain/internal/faultlib"
	"fchain/internal/meshgen"
	"fchain/internal/workload"
)

// System is a running simulation of one benchmark application.
type System = cloudsim.Sim

// AppSpec describes a simulated application; build custom ones with the
// component and edge types below.
type AppSpec = cloudsim.AppSpec

// ComponentSpec describes one simulated component (guest VM).
type ComponentSpec = cloudsim.ComponentSpec

// Edge links a component to a downstream component.
type Edge = cloudsim.Edge

// Edge kinds.
const (
	EdgeBalanced = cloudsim.EdgeBalanced
	EdgeAll      = cloudsim.EdgeAll
)

// Traffic styles (determine whether dependency discovery can see flows).
const (
	RequestReply = cloudsim.RequestReply
	Streaming    = cloudsim.Streaming
)

// SLOSpec configures the application's service level objective.
type SLOSpec = cloudsim.SLOSpec

// SLO kinds.
const (
	SLOLatency  = cloudsim.SLOLatency
	SLOProgress = cloudsim.SLOProgress
)

// Fault is an injectable fault.
type Fault = cloudsim.Fault

// Trace supplies per-second workload intensity.
type Trace = workload.Trace

// New builds a simulation from a custom application spec.
func New(spec AppSpec, seed int64) (*System, error) { return cloudsim.New(spec, seed) }

// ConstantTrace returns a fixed-rate workload trace.
func ConstantTrace(rate float64) Trace { return workload.Constant(rate) }

// NASATrace and ClarkNetTrace realize the built-in synthetic equivalents of
// the paper's IRCache workload traces over the given horizon (seconds).
func NASATrace(horizon int, seed int64) Trace {
	return workload.NewSynthetic(workload.NASA(), horizon, seed)
}

// ClarkNetTrace is the ClarkNet-like counterpart of NASATrace.
func ClarkNetTrace(horizon int, seed int64) Trace {
	return workload.NewSynthetic(workload.ClarkNet(), horizon, seed)
}

// LoadTraceCSV reads a replay trace: one per-second arrival rate per line
// (optionally "timestamp,rate"; '#' comments allowed). Use it to drive the
// simulations with real measured workloads — e.g. the actual NASA/ClarkNet
// IRCache traces the paper used, when available.
func LoadTraceCSV(path string) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: open trace: %w", err)
	}
	defer f.Close()
	return workload.LoadCSV(f)
}

// RUBiS returns the three-tier online auction benchmark (web → two app
// servers → database), modulated by a NASA-'95-like trace; SLO: 100 ms mean
// response time.
func RUBiS(seed int64) (*System, error) { return cloudsim.New(apps.RUBiS(seed), seed) }

// SystemS returns the IBM System S stream benchmark (seven PEs with a join
// at PE6), modulated by a ClarkNet-'95-like trace; SLO: 20 ms mean
// per-tuple time. Its continuous traffic defeats dependency discovery.
func SystemS(seed int64) (*System, error) { return cloudsim.New(apps.SystemS(seed), seed) }

// Hadoop returns the Hadoop sorting benchmark (three map nodes, six reduce
// nodes, wave-style shuffle); SLO: job progress stall.
func Hadoop(seed int64) (*System, error) { return cloudsim.New(apps.Hadoop(seed), seed) }

// GeneratedMesh is a generated microservice mesh: a layered topology of
// components with derived per-component capacities, a host placement, and a
// latency SLO calibrated to the mesh's analytic baseline. See ParseMesh.
type GeneratedMesh = meshgen.Mesh

// MeshExternalSpread is the external-factor onset spread (seconds) tuned for
// generated meshes: deep topologies stretch how long a mesh-wide workload
// shift takes to manifest everywhere, so the paper's 6 s (calibrated on 4-9
// component apps) is widened to 12 s.
const MeshExternalSpread = faultlib.MeshExternalSpread

// MeshMinRelMagnitude is the relative-magnitude selection floor
// (Config.MinRelMagnitude) tuned for generated meshes: with hundreds of
// monitored components, operationally meaningless shifts would otherwise
// pollute every propagation chain. Genuine template faults sit far above it.
const MeshMinRelMagnitude = faultlib.MeshMinRelMagnitude

// ParseMesh generates a microservice mesh from a parameter string like
// "n=200,fanout=3,depth=5,seed=7" (keys: n/components, fanout, depth, cycle,
// hosts, seed, rate, util; empty string = defaults). The same string always
// yields the same mesh.
func ParseMesh(spec string) (*GeneratedMesh, error) {
	p, err := meshgen.ParseParams(spec)
	if err != nil {
		return nil, err
	}
	return meshgen.Generate(p)
}

// Mesh generates a mesh from the parameter string and builds a running
// simulation of it, realizing the workload trace with the given seed (the
// topology depends only on the parameter string; the trace only on seed).
func Mesh(spec string, seed int64) (*GeneratedMesh, *System, error) {
	m, err := ParseMesh(spec)
	if err != nil {
		return nil, nil, err
	}
	sys, err := cloudsim.New(m.SpecWithTrace(seed), seed)
	if err != nil {
		return nil, nil, err
	}
	return m, sys, nil
}

// FaultTemplates lists the fault-template library's names, usable with
// MeshFault (gray failures, cascades, noisy neighbors, false-alarm traps).
func FaultTemplates() []string { return faultlib.Names() }

// MeshFault instantiates a named fault template against a generated mesh at
// the given injection time. Target selection draws from the seed, so the
// same (template, mesh, seed) triple always picks the same components.
func MeshFault(name string, inject int64, m *GeneratedMesh, seed int64) (Fault, error) {
	tpl, ok := faultlib.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown fault template %q (want one of %v)", name, faultlib.Names())
	}
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	return tpl.Make(inject, m, rng), nil
}

// MeshFaultLookBack returns the FChain look-back window a template requires
// (0 = the 100 s default; slow leaks need 500 s).
func MeshFaultLookBack(name string) int {
	if tpl, ok := faultlib.Lookup(name); ok {
		return tpl.LookBack
	}
	return 0
}

// Fault constructors (paper §III-A fault injection).
var (
	// NewMemLeak injects a memory leak of rateMB MB/s.
	NewMemLeak = cloudsim.NewMemLeak
	// NewCPUHog injects a CPU-bound competitor consuming the given cores.
	NewCPUHog = cloudsim.NewCPUHog
	// NewNetHog floods the target's inbound network.
	NewNetHog = cloudsim.NewNetHog
	// NewDiskHog steals disk bandwidth, ramping up slowly.
	NewDiskHog = cloudsim.NewDiskHog
	// NewBottleneck caps the target's CPU.
	NewBottleneck = cloudsim.NewBottleneck
	// NewLBBug skews a balancer's dispatch weights (mod_jk 1.2.30).
	NewLBBug = cloudsim.NewLBBug
	// NewOffloadBug models JBoss JBAS-1442 (failed EJB offloading).
	NewOffloadBug = cloudsim.NewOffloadBug
)

// Component name constants for the built-in scenarios.
var (
	RUBiSComponents   = []string{apps.Web, apps.App1, apps.App2, apps.DB}
	SystemSComponents = append([]string(nil), apps.SystemSPEs...)
	HadoopComponents  = append(append([]string(nil), apps.HadoopMaps...), apps.HadoopReduces...)
)

// Experiment identifiers for Run.
const (
	Figure2  = "fig2"
	Figure3  = "fig3"
	Figure4  = "fig4"
	Figure5  = "fig5"
	Figure6  = "fig6"
	Figure7  = "fig7"
	Figure8  = "fig8"
	Figure9  = "fig9"
	Figure10 = "fig10"
	Figure11 = "fig11"
	Figure12 = "fig12"
	TableI   = "table1"
	TableII  = "table2"
	// Ablation is an extension beyond the paper: it quantifies the
	// contribution of each FChain design choice.
	Ablation = "ablation"
	// Matrix is an extension beyond the paper: the (topology × fault)
	// accuracy matrix over generated microservice meshes — the committed
	// results_matrix.txt artifact. Runs <= 0 defaults to 2 seeds per cell.
	Matrix = "matrix"
)

// Experiments lists every reproducible table/figure identifier in paper
// order.
func Experiments() []string {
	return []string{
		Figure2, Figure3, Figure4, Figure5, Figure6, Figure7, Figure8,
		Figure9, Figure10, Figure11, Figure12, TableI, TableII,
	}
}

// RunOptions tunes how an experiment is regenerated.
type RunOptions struct {
	// Runs is the number of fault-injection runs per fault for the accuracy
	// experiments (the paper uses 30-40; 10-20 gives stable shapes much
	// faster); it is ignored by the walk-through figures. <=0 means 10.
	Runs int
	// Workers bounds how many fault-injection runs execute concurrently:
	// 0 uses all cores, 1 runs one at a time. The report text is identical
	// at any worker count — runs are independently seeded and results
	// assembled in seed order.
	Workers int
}

// Report is a regenerated experiment. Text is byte-stable across machines
// and worker counts, except Table II's, which is a wall-clock measurement;
// PerTrial is the mean wall time one scheme took to localize one trial
// (zero for experiments that run no fault-injection trials).
type Report = eval.Report

// Run regenerates one of the paper's tables or figures and returns its
// textual report, using all cores. runs is the number of fault-injection
// runs per fault for the accuracy experiments; see RunOptions.Runs.
func Run(id string, runs int) (string, error) {
	r, err := RunWith(id, RunOptions{Runs: runs})
	return r.Text, err
}

// RunWith is Run with explicit concurrency, returning the full report.
func RunWith(id string, opts RunOptions) (Report, error) {
	runs := opts.Runs
	if runs <= 0 {
		runs = 10
	}
	cfg := eval.RunConfig{Workers: opts.Workers}
	text := func(s string, err error) (Report, error) { return Report{Text: s}, err }
	switch id {
	case Figure2:
		return text(eval.Figure2(2))
	case Figure3:
		return text(eval.Figure3(1))
	case Figure4:
		return text(eval.Figure4(1))
	case Figure5:
		return text(eval.Figure5(1))
	case Figure6:
		return eval.Figure6(runs, cfg)
	case Figure7:
		return eval.Figure7(runs, cfg)
	case Figure8:
		return eval.Figure8(runs, cfg)
	case Figure9:
		return eval.Figure9(runs, cfg)
	case Figure10:
		return eval.Figure10(runs, cfg)
	case Figure11:
		return eval.Figure11(runs, cfg)
	case Figure12:
		return eval.Figure12(runs, cfg)
	case TableI:
		return eval.Table1(runs, cfg)
	case TableII:
		return text(eval.Table2())
	case Ablation:
		return eval.AblationTable(runs, cfg)
	case Matrix:
		// The matrix has its own default (2 runs per cell), so pass the
		// caller's raw value rather than the 10-run accuracy default.
		return eval.MatrixReport(opts.Runs, cfg)
	default:
		return Report{}, fmt.Errorf("scenario: unknown experiment %q (want one of %v)", id, Experiments())
	}
}
