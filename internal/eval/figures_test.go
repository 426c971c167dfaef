package eval

import (
	"strings"
	"testing"

	"fchain/internal/golden"
)

// TestAccuracyFigures pins every campaign experiment — Figs. 6-12, Table I
// and the ablation — at 2 runs in testdata/golden/campaigns_runs2.txt.
// Each subtest also checks its report's structure (every scheme, variant
// and case present), so an -update regeneration cannot silently drop one.
// Regenerate with `go test ./internal/eval -run TestAccuracyFigures -update`.
func TestAccuracyFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments")
	}
	roc := []string{"fchain", "topology", "dependency", "pal", "histogram", "netmedic", "fault "}
	artifacts := []struct {
		name string
		run  func(int, RunConfig) (Report, error)
		want []string
	}{
		{"fig6", Figure6, roc},
		{"fig7", Figure7, roc},
		{"fig8", Figure8, roc},
		{"fig9", Figure9, roc},
		{"fig10", Figure10, roc},
		{"fig11", Figure11, []string{"fchain+val", "bottleneck"}},
		{"fig12", Figure12, []string{"fixed(t=", "lbbug"}},
		{"table1", Table1, []string{"W=100", "W=500", "concurrency=2", "concurrency=10"}},
		{"ablation", AblationTable, []string{
			"full", "no-predictability-filter", "no-rollback", "no-dependency",
			"no-smoothing", "adaptive-lookback", "adaptive-smoothing",
			"rubis/cpuhog", "systems/memleak", "hadoop/concurrent-diskhog",
		}},
	}
	var all strings.Builder
	ran := 0
	for _, a := range artifacts {
		t.Run(a.name, func(t *testing.T) {
			r, err := a.run(2, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range a.want {
				if !strings.Contains(r.Text, want) {
					t.Errorf("%s report missing %q:\n%s", a.name, want, r.Text)
				}
			}
			all.WriteString(r.Text)
			ran++
		})
	}
	if ran == len(artifacts) && !t.Failed() {
		golden.Assert(t, golden.Path("campaigns_runs2.txt"), []byte(all.String()))
	}
}
