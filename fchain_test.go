package fchain_test

import (
	"context"
	"testing"
	"time"

	"fchain"
	"fchain/scenario"
)

// runRUBiSCpuHog builds the RUBiS benchmark, injects a CPU hog at the
// database, and returns the running system plus the violation time.
func runRUBiSCpuHog(t *testing.T, seed int64) (*scenario.System, int64) {
	t.Helper()
	sys, err := scenario.RUBiS(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Inject(scenario.NewCPUHog(1700, 1.7, "db")); err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2400)
	tv, found := sys.FirstViolation(1700, 8)
	if !found {
		t.Fatal("no SLO violation")
	}
	return sys, tv
}

// feed pushes every recorded sample up to tv into the localizer.
func feed(t *testing.T, sys *scenario.System, loc *fchain.Localizer, tv int64) {
	t.Helper()
	for _, comp := range sys.Components() {
		for _, k := range fchain.Kinds() {
			s, err := sys.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				if err := loc.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestPublicPipeline(t *testing.T) {
	sys, tv := runRUBiSCpuHog(t, 1)
	deps := fchain.DiscoverDependencies(sys.DependencyTrace(600, 1), fchain.DiscoverConfig{})
	if deps.Empty() {
		t.Fatal("expected discovered dependencies for RUBiS")
	}
	loc := fchain.NewLocalizer(fchain.DefaultConfig(), sys.Components())
	feed(t, sys, loc, tv)
	diag := loc.Localize(tv, deps)
	names := diag.CulpritNames()
	if len(names) == 0 || names[0] != "db" {
		t.Errorf("culprits = %v, want db first", names)
	}
}

func TestPublicValidation(t *testing.T) {
	sys, tv := runRUBiSCpuHog(t, 1)
	loc := fchain.NewLocalizer(fchain.DefaultConfig(), sys.Components())
	feed(t, sys, loc, tv)
	diag := loc.Localize(tv, nil)
	if len(diag.Culprits) == 0 {
		t.Fatal("no culprits to validate")
	}
	results, err := fchain.Validate(func() (fchain.Adjuster, error) {
		return sys.Clone(), nil
	}, diag)
	if err != nil {
		t.Fatal(err)
	}
	validated := fchain.ApplyValidation(diag, results)
	found := false
	for _, c := range validated.Culprits {
		if c.Component == "db" {
			found = true
			if !c.Validated {
				t.Error("surviving culprit should be marked validated")
			}
		}
	}
	if !found {
		t.Errorf("validation dropped the true culprit: %v", validated.CulpritNames())
	}
}

func TestPublicDistributed(t *testing.T) {
	sys, tv := runRUBiSCpuHog(t, 1)
	deps := fchain.DiscoverDependencies(sys.DependencyTrace(600, 1), fchain.DiscoverConfig{})
	master := fchain.NewMaster(fchain.DefaultConfig(), deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	for _, comp := range sys.Components() {
		slave := fchain.NewSlave("host-"+comp, []string{comp}, fchain.DefaultConfig())
		for _, k := range fchain.Kinds() {
			s, err := sys.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				if err := slave.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := slave.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		defer slave.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(master.Slaves()) < len(sys.Components()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("full cluster localize reported degraded coverage: %+v", res)
	}
	names := res.Diagnosis.CulpritNames()
	if len(names) == 0 || names[0] != "db" {
		t.Errorf("distributed culprits = %v, want db first", names)
	}
}

func TestScenarioRunUnknown(t *testing.T) {
	if _, err := scenario.Run("fig99", 1); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestScenarioExperimentsComplete(t *testing.T) {
	ids := scenario.Experiments()
	if len(ids) != 13 {
		t.Errorf("experiments = %d, want 13 (11 figures + 2 tables)", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %s", id)
		}
		seen[id] = true
	}
}

func TestScenarioWalkthroughExperiments(t *testing.T) {
	// The four walk-through figures must run end to end via the public API.
	for _, id := range []string{scenario.Figure2, scenario.Figure3, scenario.Figure4, scenario.Figure5} {
		out, err := scenario.Run(id, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestKindsExposed(t *testing.T) {
	if got := len(fchain.Kinds()); got != 6 {
		t.Errorf("Kinds = %d, want 6", got)
	}
	if fchain.CPU.String() != "cpu" || fchain.DiskWrite.String() != "disk_write" {
		t.Error("kind constants wrong")
	}
}

func TestCustomScenario(t *testing.T) {
	// A downstream user can define their own application spec.
	spec := scenario.AppSpec{
		Name: "custom",
		Components: []scenario.ComponentSpec{
			{Name: "front", CPUCostPerReq: 0.002, NetInPerReq: 0.01,
				Downstream: []scenario.Edge{{To: "back", Kind: scenario.EdgeBalanced}}},
			{Name: "back", CPUCostPerReq: 0.004},
		},
		Entries: []string{"front"},
		Style:   scenario.RequestReply,
		SLO:     scenario.SLOSpec{Kind: scenario.SLOLatency, Threshold: 0.1},
		Trace:   constantTrace(50),
	}
	sys, err := scenario.New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Step(100)
	if sys.Now() != 100 {
		t.Errorf("Now = %d", sys.Now())
	}
}

type constantTrace float64

func (c constantTrace) Rate(int64) float64 { return float64(c) }

func TestDependencyPersistenceFacade(t *testing.T) {
	g := fchain.NewDependencyGraph()
	g.AddEdge("web", "app", 0.9)
	path := t.TempDir() + "/deps.json"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := fchain.LoadDependencies(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasEdge("web", "app") {
		t.Error("loaded graph lost its edge")
	}
	if _, err := fchain.LoadDependencies(path + ".missing"); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestDiagnoseFacade(t *testing.T) {
	reports := []fchain.ComponentReport{
		{Component: "db", Onset: 100, Changes: []fchain.AbnormalChange{{
			Component: "db", Metric: fchain.CPU, ChangeAt: 105, Onset: 100,
			PredErr: 10, Expected: 1, Magnitude: 20,
		}}},
		{Component: "web"},
	}
	diag := fchain.Diagnose(reports, 2, nil, fchain.DefaultConfig())
	if names := diag.CulpritNames(); len(names) != 1 || names[0] != "db" {
		t.Errorf("Diagnose = %v, want [db]", names)
	}
}

func TestParseKindFacade(t *testing.T) {
	k, err := fchain.ParseKind("disk_read")
	if err != nil || k != fchain.DiskRead {
		t.Errorf("ParseKind = %v, %v", k, err)
	}
	if _, err := fchain.ParseKind("nope"); err == nil {
		t.Error("bad kind should error")
	}
}
