package core

import (
	"testing"

	"fchain/internal/apps"
	"fchain/internal/cloudsim"
	"fchain/internal/depgraph"
	"fchain/internal/metric"
)

// runPipeline injects the fault at inject, waits for the SLO violation,
// feeds every recorded sample into a localizer, and returns the diagnosis
// together with the sim (positioned at tv) for validation tests.
func runPipeline(t *testing.T, spec cloudsim.AppSpec, fault cloudsim.Fault, cfg Config, deps *depgraph.Graph, seed int64) (Diagnosis, *cloudsim.Sim, int64) {
	t.Helper()
	sim, err := cloudsim.New(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(fault); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(fault.Start() + 1000)
	tv, found := sim.FirstViolation(fault.Start(), 8)
	if !found {
		t.Fatalf("fault %s did not violate the SLO", fault.Name())
	}
	l := NewLocalizer(cfg, sim.Components())
	for _, comp := range sim.Components() {
		for _, k := range metric.Kinds {
			s, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				if err := l.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return l.Localize(tv, deps), sim, tv
}

func sameSet(got []string, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	m := make(map[string]bool, len(got))
	for _, g := range got {
		m[g] = true
	}
	for _, w := range want {
		if !m[w] {
			return false
		}
	}
	return true
}

func rubisDeps(t *testing.T, seed int64) *depgraph.Graph {
	t.Helper()
	sim, err := cloudsim.New(apps.RUBiS(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	return depgraph.Discover(sim.DependencyTrace(600, seed), depgraph.DiscoverConfig{})
}

func TestEndToEndRUBiSCpuHogAtDB(t *testing.T) {
	// The back-pressure scenario: the hog at the db drives the app tier
	// abnormal; FChain must still blame the db (earliest onset).
	deps := rubisDeps(t, 1)
	hits := 0
	for seed := int64(1); seed <= 3; seed++ {
		fault := cloudsim.NewCPUHog(1400, 1.7, apps.DB)
		diag, _, _ := runPipeline(t, apps.RUBiS(seed), fault, DefaultConfig(), deps, seed)
		if sameSet(diag.CulpritNames(), apps.DB) {
			hits++
		} else {
			t.Logf("seed %d: %s", seed, diag)
		}
	}
	if hits < 2 {
		t.Errorf("db pinpointed in only %d/3 runs", hits)
	}
}

func TestEndToEndRUBiSMemLeakAtDB(t *testing.T) {
	deps := rubisDeps(t, 2)
	hits := 0
	for seed := int64(1); seed <= 3; seed++ {
		fault := cloudsim.NewMemLeak(1400, 30, apps.DB)
		diag, _, _ := runPipeline(t, apps.RUBiS(seed), fault, DefaultConfig(), deps, seed)
		if sameSet(diag.CulpritNames(), apps.DB) {
			hits++
		} else {
			t.Logf("seed %d: %s", seed, diag)
		}
	}
	if hits < 2 {
		t.Errorf("db pinpointed in only %d/3 runs", hits)
	}
}

func TestEndToEndRUBiSNetHogAtWeb(t *testing.T) {
	deps := rubisDeps(t, 3)
	hits := 0
	for seed := int64(1); seed <= 3; seed++ {
		fault := cloudsim.NewNetHog(1400, 98.5, apps.Web)
		diag, _, _ := runPipeline(t, apps.RUBiS(seed), fault, DefaultConfig(), deps, seed)
		if sameSet(diag.CulpritNames(), apps.Web) {
			hits++
		} else {
			t.Logf("seed %d: %s", seed, diag)
		}
	}
	if hits < 2 {
		t.Errorf("web pinpointed in only %d/3 runs", hits)
	}
}

func TestEndToEndSystemSMemLeak(t *testing.T) {
	// No dependency graph for System S (discovery fails): propagation
	// order alone must localize the leaking PE.
	hits := 0
	for seed := int64(1); seed <= 3; seed++ {
		fault := cloudsim.NewMemLeak(1400, 28, "pe3")
		diag, _, _ := runPipeline(t, apps.SystemS(seed), fault, DefaultConfig(), depgraph.NewGraph(), seed)
		if sameSet(diag.CulpritNames(), "pe3") {
			hits++
		} else {
			t.Logf("seed %d: %s", seed, diag)
		}
	}
	if hits < 2 {
		t.Errorf("pe3 pinpointed in only %d/3 runs", hits)
	}
}

func TestEndToEndSystemSConcurrentCpuHog(t *testing.T) {
	// The paper reports that this exact fault is FChain's hardest System S
	// case: propagation is so fast that downstream victims look concurrent
	// (§III-C), and online validation is the remedy (§III-D). The test
	// therefore requires both true culprits to be found with a bounded
	// number of concurrent false alarms.
	hits := 0
	for seed := int64(1); seed <= 3; seed++ {
		fault := cloudsim.NewCPUHog(1400, 1.85, "pe3", "pe5")
		diag, _, _ := runPipeline(t, apps.SystemS(seed), fault, DefaultConfig(), depgraph.NewGraph(), seed)
		got := diag.CulpritNames()
		found := map[string]bool{}
		for _, c := range got {
			found[c] = true
		}
		if found["pe3"] && found["pe5"] && len(got) <= 4 {
			hits++
		} else {
			t.Logf("seed %d: %v", seed, diag)
		}
	}
	if hits < 2 {
		t.Errorf("concurrent culprits found in only %d/3 runs", hits)
	}
}

func TestEndToEndHadoopConcurrentCpuHog(t *testing.T) {
	hits := 0
	for seed := int64(1); seed <= 3; seed++ {
		fault := cloudsim.NewCPUHog(1400, 1.97, apps.HadoopMaps...)
		diag, _, _ := runPipeline(t, apps.Hadoop(seed), fault, DefaultConfig(), nil, seed)
		if sameSet(diag.CulpritNames(), apps.HadoopMaps...) {
			hits++
		} else {
			t.Logf("seed %d: %s", seed, diag)
		}
	}
	if hits < 2 {
		t.Errorf("all maps pinpointed in only %d/3 runs", hits)
	}
}

func TestEndToEndWorkloadSurgeIsExternal(t *testing.T) {
	// A pure workload surge (no fault) that violates the SLO should be
	// classified as an external factor, pinpointing nothing.
	spec := apps.RUBiS(4)
	spec.Trace = &workloadSurge{inner: spec.Trace, factor: 3.2, from: 600}
	sim, err := cloudsim.New(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(1400)
	tv, found := sim.FirstViolation(600, 3)
	if !found {
		t.Skip("surge did not violate the SLO under this sizing")
	}
	l := NewLocalizer(DefaultConfig(), sim.Components())
	for _, comp := range sim.Components() {
		for _, k := range metric.Kinds {
			s, _ := sim.Series(comp, k)
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				if err := l.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	diag := l.Localize(tv, rubisDeps(t, 4))
	if len(diag.Culprits) > 0 && !diag.ExternalFactor {
		t.Errorf("workload surge misdiagnosed as component fault: %s", diag)
	}
}

// workloadSurge scales the wrapped trace by factor from time `from`.
type workloadSurge struct {
	inner  interface{ Rate(int64) float64 }
	factor float64
	from   int64
}

func (w *workloadSurge) Rate(t int64) float64 {
	r := w.inner.Rate(t)
	if t >= w.from {
		return r * w.factor
	}
	return r
}

func TestEndToEndValidationRemovesFalseAlarm(t *testing.T) {
	// Force a diagnosis containing a false alarm and verify online
	// validation removes it while confirming the true culprit.
	fault := cloudsim.NewCPUHog(1400, 1.7, apps.DB)
	diag, sim, _ := runPipeline(t, apps.RUBiS(5), fault, DefaultConfig(), rubisDeps(t, 5), 5)
	if len(diag.Culprits) == 0 {
		t.Fatal("no culprits to validate")
	}
	// Add a fabricated false alarm.
	diag.Culprits = append(diag.Culprits, Culprit{
		Component: apps.Web,
		Metrics:   []metric.Kind{metric.CPU},
		Reason:    "concurrent",
	})
	results, err := Validate(func() (Adjuster, error) { return sim.Clone(), nil }, diag)
	if err != nil {
		t.Fatal(err)
	}
	filtered := ApplyValidation(diag, results)
	names := filtered.CulpritNames()
	for _, n := range names {
		if n == apps.Web {
			t.Errorf("validation failed to remove the fabricated false alarm: %v", names)
		}
	}
	foundDB := false
	for _, n := range names {
		if n == apps.DB {
			foundDB = true
		}
	}
	if !foundDB {
		t.Errorf("validation wrongly removed the true culprit: %v", names)
	}
}

// Guard: cloudsim.Sim must satisfy the Adjuster interface.
var _ Adjuster = (*cloudsim.Sim)(nil)

func TestAdaptiveLookBackFindsSlowFault(t *testing.T) {
	// The Hadoop DiskHog manifests over minutes; with W=100 fixed the
	// look-back often contains no abnormal change. The adaptive scheme
	// widens the window until one appears (paper §III-F ongoing work).
	found := 0
	foundFixed := 0
	for seed := int64(1); seed <= 3; seed++ {
		sim, err := cloudsim.New(apps.Hadoop(seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		fault := cloudsim.NewDiskHog(1500, 59.4, 300, apps.HadoopMaps...)
		if err := sim.Inject(fault); err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(1500 + 1100)
		tv, ok := sim.FirstViolation(1500, 3)
		if !ok {
			t.Fatal("diskhog should stall the job")
		}
		run := func(cfg Config) Diagnosis {
			l := NewLocalizer(cfg, sim.Components())
			for _, comp := range sim.Components() {
				for _, k := range metric.Kinds {
					s, _ := sim.Series(comp, k)
					for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
						if err := l.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			return l.Localize(tv, nil)
		}
		fixed := run(Config{LookBack: 100})
		adaptive := run(Config{LookBack: 100, AdaptiveLookBack: true})
		if len(fixed.Culprits) > 0 {
			foundFixed++
		}
		if len(adaptive.Culprits) > 0 {
			found++
		}
		// Adaptive must never do worse than fixed on the same data.
		if len(adaptive.Chain) < len(fixed.Chain) {
			t.Errorf("seed %d: adaptive chain smaller than fixed", seed)
		}
	}
	if found < foundFixed {
		t.Errorf("adaptive look-back found culprits in %d runs, fixed in %d", found, foundFixed)
	}
	if found == 0 {
		t.Error("adaptive look-back never localized the slow fault")
	}
}
