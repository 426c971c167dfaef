// Package eval is the experiment harness that regenerates every table and
// figure of the FChain paper's evaluation (§III): one Sweep runs the
// fault-injection trials on the simulated benchmarks, applies each
// localization scheme to identical trial data, and aggregates
// precision/recall; each artifact is a sweep spec plus its renderer.
package eval

import (
	"fmt"
	"math/rand"
	"runtime"

	"fchain/internal/apps"
	"fchain/internal/baseline"
	"fchain/internal/cloudsim"
	"fchain/internal/depgraph"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// Outcome accumulates localization counts across trials.
type Outcome struct {
	TP int // correctly pinpointed faulty components
	FP int // normal components pinpointed as faulty
	FN int // faulty components missed
}

// Add merges another outcome.
func (o *Outcome) Add(other Outcome) {
	o.TP += other.TP
	o.FP += other.FP
	o.FN += other.FN
}

// Precision returns TP/(TP+FP), or 0 when nothing was pinpointed.
func (o Outcome) Precision() float64 {
	if o.TP+o.FP == 0 {
		return 0
	}
	return float64(o.TP) / float64(o.TP+o.FP)
}

// Recall returns TP/(TP+FN). When there was nothing to find (TP+FN == 0,
// which by Score's construction means the ground truth was empty — a
// false-alarm trap), recall is vacuously 1: missing nothing is not a miss.
// Precision still penalizes any culprit blamed on such a trial, since every
// pinpointed component is a false positive against an empty truth.
func (o Outcome) Recall() float64 {
	if o.TP+o.FN == 0 {
		return 1
	}
	return float64(o.TP) / float64(o.TP+o.FN)
}

// Score compares pinpointed components against the ground truth. An empty
// truth (a false-alarm trap) makes every pinpointed component a false
// positive; with nothing pinpointed either, the outcome is all-zero
// (precision 0/0 reported as 0, recall vacuously 1).
func Score(pinpointed, truth []string) Outcome {
	t := make(map[string]bool, len(truth))
	for _, c := range truth {
		t[c] = true
	}
	var o Outcome
	seen := make(map[string]bool, len(pinpointed))
	for _, c := range pinpointed {
		if seen[c] {
			continue
		}
		seen[c] = true
		if t[c] {
			o.TP++
		} else {
			o.FP++
		}
	}
	for _, c := range truth {
		if !seen[c] {
			o.FN++
		}
	}
	return o
}

// AppBuilder constructs a benchmark application spec for a seed.
type AppBuilder func(seed int64) cloudsim.AppSpec

// Benchmark couples an application with its fault catalog.
type Benchmark struct {
	Name   string
	Build  AppBuilder
	Faults []apps.FaultCase
}

// Benchmarks returns the paper's three benchmark systems.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Name: "rubis", Build: apps.RUBiS, Faults: apps.RUBiSFaults()},
		{Name: "systems", Build: apps.SystemS, Faults: apps.SystemSFaults()},
		{Name: "hadoop", Build: apps.Hadoop, Faults: apps.HadoopFaults()},
	}
}

// TrialBundle is one completed fault-injection run plus its ground truth.
type TrialBundle struct {
	Trial  *baseline.Trial
	Truth  []string
	Fault  string
	Seed   int64
	Inject int64
}

// RunConfig controls trial generation.
type RunConfig struct {
	// InjectMin/InjectMax bound the random fault injection time. The paper
	// injects at a random instant during one-hour runs; the slave models
	// are assumed warm (defaults 1200 and 2400).
	InjectMin, InjectMax int64
	// Horizon is how long past the injection the run may continue while
	// waiting for an SLO violation (default 1100).
	Horizon int64
	// SustainSec is the consecutive-violation requirement for anomaly
	// detection (default 8): production detectors smooth the SLO signal
	// before alarming, so localization is triggered a few seconds into the
	// manifestation, not on the first bad sample.
	SustainSec int
	// DepTraceSec is the offline dependency-capture duration (default 600).
	DepTraceSec int
	// Workers bounds how many trials of a sweep execute concurrently: 0
	// uses GOMAXPROCS, 1 runs one trial at a time, and any other value is
	// the cap. Every trial is seeded independently and results are
	// assembled in (row, seed) order, so the output is identical at any
	// worker count.
	Workers int
}

// workers resolves the effective sweep concurrency. Zero means "all
// cores, decided now": the zero value is never rewritten by withDefaults, so
// a serialized RunConfig does not pin the core count of the machine that
// wrote it.
func (c RunConfig) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c RunConfig) withDefaults() RunConfig {
	if c.InjectMin <= 0 {
		c.InjectMin = 1200
	}
	if c.InjectMax <= c.InjectMin {
		c.InjectMax = c.InjectMin + 1200
	}
	if c.Horizon <= 0 {
		c.Horizon = 1100
	}
	if c.SustainSec <= 0 {
		c.SustainSec = 8
	}
	if c.DepTraceSec <= 0 {
		c.DepTraceSec = 600
	}
	return c
}

// ErrNoViolation reports a run whose fault never produced a detectable SLO
// violation within the horizon; sweeps count and skip such runs.
type ErrNoViolation struct {
	Fault string
	Seed  int64
}

func (e *ErrNoViolation) Error() string {
	return fmt.Sprintf("eval: fault %s (seed %d) produced no SLO violation", e.Fault, e.Seed)
}

// RunTrial executes one fault-injection run: build the application, inject
// the fault at a seed-derived random time, wait for the SLO violation, and
// package everything every scheme needs.
func RunTrial(b Benchmark, fc apps.FaultCase, seed int64, cfg RunConfig) (*TrialBundle, error) {
	cfg = cfg.withDefaults()
	sim, err := cloudsim.New(b.Build(seed), seed)
	if err != nil {
		return nil, fmt.Errorf("eval: build %s: %w", b.Name, err)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	inject := cfg.InjectMin + rng.Int63n(cfg.InjectMax-cfg.InjectMin+1)
	fault := fc.Make(inject, rng)
	if err := sim.Inject(fault); err != nil {
		return nil, fmt.Errorf("eval: inject: %w", err)
	}
	sim.RunUntil(inject + cfg.Horizon)
	tv, found := sim.FirstViolation(inject, cfg.SustainSec)
	if !found {
		return nil, &ErrNoViolation{Fault: fc.Name, Seed: seed}
	}

	lookBack := fc.LookBack
	if lookBack <= 0 {
		lookBack = 100
	}
	series := make(map[string]map[metric.Kind]*timeseries.Series, len(sim.Components()))
	for _, comp := range sim.Components() {
		series[comp] = make(map[metric.Kind]*timeseries.Series, metric.NumKinds)
		for _, k := range metric.Kinds {
			s, err := sim.Series(comp, k)
			if err != nil {
				return nil, err
			}
			series[comp][k] = s.Window(s.Start(), tv+1)
		}
	}
	deps := depgraph.Discover(sim.DependencyTrace(cfg.DepTraceSec, seed), depgraph.DiscoverConfig{})
	truth := fault.Targets()
	if gt, ok := fault.(cloudsim.GroundTruther); ok {
		truth = gt.GroundTruth()
	}
	return &TrialBundle{
		Trial: &baseline.Trial{
			Components: sim.Components(),
			Series:     series,
			TV:         tv,
			LookBack:   lookBack,
			Topology:   sim.TopologyGraph(),
			Deps:       deps,
			Sim:        sim,
		},
		Truth:  truth,
		Fault:  fc.Name,
		Seed:   seed,
		Inject: inject,
	}, nil
}

// SchemeResult pairs a scheme with its aggregate outcome.
type SchemeResult struct {
	Scheme  string
	Outcome Outcome
}

// BestOf returns, for a swept scheme family, the result with the highest
// precision+recall sum — the operating point a practitioner would pick,
// used when a figure reports one point per scheme.
func BestOf(results []SchemeResult) SchemeResult {
	if len(results) == 0 {
		return SchemeResult{}
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Outcome.Precision()+r.Outcome.Recall() > best.Outcome.Precision()+best.Outcome.Recall() {
			best = r
		}
	}
	return best
}
