// Command fchain-sim runs a single fault-injection scenario on one of the
// simulated benchmark applications and prints FChain's diagnosis.
//
// Usage:
//
//	fchain-sim -app rubis -fault cpuhog -seed 7
//	fchain-sim -app systems -fault memleak -target pe3
//	fchain-sim -app hadoop -fault diskhog -validate
//
// Instead of a benchmark application, -mesh runs the scenario on a generated
// microservice mesh with a fault drawn from the template library:
//
//	fchain-sim -mesh "n=200,fanout=3,depth=5,seed=7" -fault gray-disk
//	fchain-sim -mesh "n=100,cycle=0.1" -fault workload-surge
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"encoding/json"

	"fchain"
	"fchain/internal/faultlib"
	"fchain/internal/obs"
	"fchain/scenario"
)

func main() {
	var (
		app      = flag.String("app", "rubis", "benchmark application: rubis, systems, hadoop")
		mesh     = flag.String("mesh", "", `generated mesh parameters, e.g. "n=200,fanout=3,depth=5,seed=7" (overrides -app; -fault names a template)`)
		fault    = flag.String("fault", "", "fault: memleak, cpuhog, nethog, diskhog, bottleneck, lbbug, offloadbug (default cpuhog); with -mesh, a template name (default gray-disk)")
		target   = flag.String("target", "", "faulty component (default: the paper's usual target)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		inject   = flag.Int64("inject", 0, "fault injection time (seconds; default 1500, or 2000 with -mesh)")
		validate = flag.Bool("validate", false, "run online pinpointing validation")
		saveDeps = flag.String("save-deps", "", "write the discovered dependency graph to this file")
		emitCSV  = flag.String("emit-csv", "", "write the collected metric samples (component,time,metric,value) to this file — feedable to fchain-slave")
		parallel = flag.Int("parallel", 0, "analysis workers (0 = all cores, 1 = serial; the diagnosis is identical either way)")
		traceOut = flag.String("trace-out", "", "write the localization's full evidence trace (JSON span tree) to this file")
	)
	flag.Parse()
	if *fault == "" {
		if *mesh != "" {
			*fault = "gray-disk"
		} else {
			*fault = "cpuhog"
		}
	}
	if *inject == 0 {
		if *mesh != "" {
			// Generated-mesh workloads carry an 1800 s diurnal cycle; the
			// localizer's context calibration must see one full period
			// before injection.
			*inject = 2000
		} else {
			*inject = 1500
		}
	}
	if err := run(*app, *mesh, *fault, *target, *seed, *inject, *validate, *saveDeps, *emitCSV, *parallel, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "fchain-sim:", err)
		os.Exit(1)
	}
}

// dumpCSV writes every recorded sample up to tv in the CSV form that
// cmd/fchain-slave consumes.
func dumpCSV(sys *scenario.System, tv int64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, comp := range sys.Components() {
		for _, k := range fchain.Kinds() {
			s, err := sys.Series(comp, k)
			if err != nil {
				f.Close()
				return err
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				fmt.Fprintf(w, "%s,%d,%s,%.6f\n", comp, s.TimeAt(i), k, s.At(i))
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildSystem(app string, seed int64) (*scenario.System, string, bool, error) {
	switch app {
	case "rubis":
		sys, err := scenario.RUBiS(seed)
		return sys, "db", true, err
	case "systems":
		sys, err := scenario.SystemS(seed)
		return sys, "pe3", false, err
	case "hadoop":
		sys, err := scenario.Hadoop(seed)
		return sys, "map1", true, err
	default:
		return nil, "", false, fmt.Errorf("unknown app %q", app)
	}
}

func buildFault(name, target string, inject int64, rng *rand.Rand) (scenario.Fault, error) {
	switch name {
	case "memleak":
		return scenario.NewMemLeak(inject, 28+4*rng.Float64(), target), nil
	case "cpuhog":
		return scenario.NewCPUHog(inject, 1.7+0.2*rng.Float64(), target), nil
	case "nethog":
		return scenario.NewNetHog(inject, 98.5, target), nil
	case "diskhog":
		return scenario.NewDiskHog(inject, 59.4, 300, target), nil
	case "bottleneck":
		return scenario.NewBottleneck(inject, 0.1, target), nil
	case "lbbug":
		return scenario.NewLBBug(inject, "web", map[string]float64{"app1": 0.97, "app2": 0.03}, 2.5), nil
	case "offloadbug":
		return scenario.NewOffloadBug(inject, "app1", "app2", 0.065), nil
	default:
		return nil, fmt.Errorf("unknown fault %q", name)
	}
}

func run(app, mesh, faultName, target string, seed, inject int64, validate bool, saveDeps, emitCSV string, parallel int, traceOut string) error {
	var (
		sys          *scenario.System
		fault        scenario.Fault
		discoverable = true
		depTraceSec  = 600
	)
	cfg := fchain.DefaultConfig()
	if mesh != "" {
		m, msys, err := scenario.Mesh(mesh, seed)
		if err != nil {
			return err
		}
		sys = msys
		fmt.Printf("generated mesh: %s\n", m)
		fault, err = scenario.MeshFault(faultName, inject, m, seed)
		if err != nil {
			return err
		}
		// The mesh monitoring profile: wider external-factor spread for
		// deep topologies, a relative-magnitude selection floor against
		// per-component false positives at scale, and the template's
		// declared look-back window.
		cfg = faultlib.MeshProfile(cfg)
		if lb := scenario.MeshFaultLookBack(faultName); lb > 0 {
			cfg.LookBack = lb
		}
		// Discovery samples ~1 request journey per 1.3 s and wants ~10
		// inbound flows per component before trusting edges; meshes have
		// far more components than the paper apps.
		depTraceSec = 2400
		app = "mesh"
	} else {
		var defaultTarget string
		var err error
		sys, defaultTarget, discoverable, err = buildSystem(app, seed)
		if err != nil {
			return err
		}
		if target == "" {
			target = defaultTarget
		}
		rng := rand.New(rand.NewSource(seed))
		fault, err = buildFault(faultName, target, inject, rng)
		if err != nil {
			return err
		}
	}
	if err := sys.Inject(fault); err != nil {
		return err
	}
	fmt.Printf("injecting %s into %v at t=%d (app %s, seed %d)\n",
		fault.Name(), fault.Targets(), inject, app, seed)

	sys.RunUntil(inject + 1100)
	tv, found := sys.FirstViolation(inject, 8)
	if !found {
		return fmt.Errorf("no SLO violation within the horizon — try a different seed or fault")
	}
	fmt.Printf("SLO violation detected at t=%d (%.0fs after injection)\n", tv, float64(tv-inject))

	deps := fchain.DiscoverDependencies(sys.DependencyTrace(depTraceSec, seed), fchain.DiscoverConfig{})
	if discoverable {
		fmt.Printf("discovered dependencies: %s\n", deps)
	} else {
		fmt.Println("dependency discovery found nothing (continuous stream traffic); " +
			"falling back to propagation-order localization")
	}
	if saveDeps != "" {
		if err := deps.Save(saveDeps); err != nil {
			return err
		}
		fmt.Println("dependency graph written to", saveDeps)
	}
	if emitCSV != "" {
		if err := dumpCSV(sys, tv, emitCSV); err != nil {
			return err
		}
		fmt.Println("metric samples written to", emitCSV)
	}

	cfg.Parallelism = parallel
	loc := fchain.NewLocalizer(cfg, sys.Components())
	for _, comp := range sys.Components() {
		for _, k := range fchain.Kinds() {
			s, err := sys.Series(comp, k)
			if err != nil {
				return err
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				if err := loc.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					return err
				}
			}
		}
	}
	diag, stats, trace := loc.LocalizeTraced(tv, deps)
	fmt.Println("propagation chain:")
	for _, r := range diag.Chain {
		fmt.Printf("  %-10s onset=%d metrics=%v\n", r.Component, r.Onset, r.AbnormalMetrics())
	}
	fmt.Println("diagnosis:", diag)
	fmt.Println("analysis:", stats)
	fmt.Printf("trace: %d spans recorded\n", trace.SpanCount())
	if traceOut != "" {
		raw, err := json.MarshalIndent(trace, "", "  ")
		if err != nil {
			return err
		}
		if err := obs.WriteFileAtomic(traceOut, append(raw, '\n')); err != nil {
			return err
		}
		fmt.Println("evidence trace written to", traceOut)
	}

	if validate && len(diag.Culprits) > 0 {
		results, err := fchain.Validate(func() (fchain.Adjuster, error) {
			return sys.Clone(), nil
		}, diag)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Printf("validation %-10s confirmed=%v (SLO metric %.3f when omitted)\n",
				r.Culprit.Component, r.Confirmed, r.Metric)
		}
		fmt.Println("after validation:", fchain.ApplyValidation(diag, results))
	}
	return nil
}
