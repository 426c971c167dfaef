package scenario_test

import (
	"os"
	"strings"
	"testing"

	"fchain/scenario"
)

func TestConstructors(t *testing.T) {
	tests := []struct {
		name  string
		build func(int64) (*scenario.System, error)
		comps []string
	}{
		{"rubis", scenario.RUBiS, scenario.RUBiSComponents},
		{"systems", scenario.SystemS, scenario.SystemSComponents},
		{"hadoop", scenario.Hadoop, scenario.HadoopComponents},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys, err := tt.build(1)
			if err != nil {
				t.Fatal(err)
			}
			got := sys.Components()
			if len(got) != len(tt.comps) {
				t.Fatalf("components = %v, want %d of %v", got, len(tt.comps), tt.comps)
			}
			sys.Step(50)
			if sys.Now() != 50 {
				t.Errorf("Now = %d, want 50", sys.Now())
			}
		})
	}
}

func TestFaultConstructorsInjectable(t *testing.T) {
	sys, err := scenario.RUBiS(1)
	if err != nil {
		t.Fatal(err)
	}
	faults := []scenario.Fault{
		scenario.NewMemLeak(10, 20, "db"),
		scenario.NewCPUHog(10, 1.5, "db"),
		scenario.NewNetHog(10, 90, "web"),
		scenario.NewDiskHog(10, 50, 100, "db"),
		scenario.NewBottleneck(10, 0.2, "app1"),
		scenario.NewLBBug(10, "web", map[string]float64{"app1": 0.9, "app2": 0.1}, 2),
		scenario.NewOffloadBug(10, "app1", "app2", 0.05),
	}
	for _, f := range faults {
		if err := sys.Inject(f); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestRunTable2(t *testing.T) {
	out, err := scenario.Run(scenario.TableII, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table II") {
		t.Errorf("unexpected report:\n%s", out)
	}
}

func TestRunFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	out, err := serialReport(scenario.Figure12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fchain", "fixed(t="} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 12 report missing %q:\n%s", want, out)
		}
	}
}

func TestRunWalkthroughs(t *testing.T) {
	for _, id := range []string{scenario.Figure2, scenario.Figure3, scenario.Figure4, scenario.Figure5} {
		out, err := serialReport(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "Figure") {
			t.Errorf("%s output malformed:\n%s", id, out)
		}
	}
}

func TestRunAblationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	out, err := serialReport(scenario.Ablation)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no-predictability-filter") {
		t.Errorf("ablation output malformed:\n%s", out)
	}
}

func TestRunCampaignExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments")
	}
	for _, id := range []string{
		scenario.Figure6, scenario.Figure7, scenario.Figure8, scenario.Figure9,
		scenario.Figure10, scenario.Figure11, scenario.TableI,
	} {
		out, err := serialReport(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "fchain") && !strings.Contains(out, "W=") {
			t.Errorf("%s output malformed:\n%s", id, out)
		}
	}
}

func TestTraceHelpers(t *testing.T) {
	path := t.TempDir() + "/trace.csv"
	if err := os.WriteFile(path, []byte("10\n20\n30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.LoadTraceCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rate(1) != 20 {
		t.Errorf("replayed rate = %v, want 20", tr.Rate(1))
	}
	if _, err := scenario.LoadTraceCSV(path + ".missing"); err == nil {
		t.Error("missing trace file should error")
	}
}
