package eval

import (
	"strings"
	"sync"
	"testing"

	"fchain/internal/apps"
	"fchain/internal/golden"
)

// memoTrials makes every sweep the test runs build each distinct trial
// once: the figures, Table I and the ablation share 18 of their 46 trials.
// Schemes only read a bundle (validation clones its simulation), so sharing
// one changes no report byte, which the golden below confirms.
func memoTrials(t *testing.T) {
	type key struct {
		bench, fault string
		lookBack     int
		seed         int64
		cfg          RunConfig
	}
	type entry struct {
		once sync.Once
		tb   *TrialBundle
		err  error
	}
	var memo sync.Map // key → *entry
	runTrial = func(b Benchmark, fc apps.FaultCase, seed int64, cfg RunConfig) (*TrialBundle, error) {
		cfg.Workers = 0 // how many trials run at once does not shape one
		v, _ := memo.LoadOrStore(key{b.Name, fc.Name, fc.LookBack, seed, cfg}, new(entry))
		e := v.(*entry)
		e.once.Do(func() { e.tb, e.err = RunTrial(b, fc, seed, cfg) })
		return e.tb, e.err
	}
	t.Cleanup(func() { runTrial = RunTrial })
}

// TestAccuracyFigures pins every campaign experiment — Figs. 6-12, Table I
// and the ablation — at 2 runs in testdata/golden/campaigns_runs2.txt.
// Each subtest also checks its report's structure (every scheme, variant
// and case present), so an -update regeneration cannot silently drop one.
// Regenerate with `go test ./internal/eval -run TestAccuracyFigures -update`.
func TestAccuracyFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments")
	}
	memoTrials(t)
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
