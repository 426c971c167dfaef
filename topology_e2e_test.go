package fchain_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"fchain"
	"fchain/internal/faultlib"
	"fchain/internal/golden"
	"fchain/internal/obs"
	"fchain/scenario"
)

// buildScenario replays one golden scenario up to its SLO violation and
// returns the simulated system, the violation time, the discovered
// dependency graph, and the monitoring config the scenario calls for (mesh
// scenarios analyze under the mesh profile) — the shared inputs both
// cluster topologies feed from.
func buildScenario(t *testing.T, sc goldenScenario) (*scenario.System, int64, *fchain.DependencyGraph, fchain.Config) {
	t.Helper()
	cfg := fchain.DefaultConfig()
	depTraceSec := 600
	var (
		sys   *scenario.System
		fault scenario.Fault
	)
	if sc.meshSpec != "" {
		m, msys, err := scenario.Mesh(sc.meshSpec, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		sys = msys
		fault, err = scenario.MeshFault(sc.faultTpl, sc.inject, m, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg = faultlib.MeshProfile(cfg)
		if lb := scenario.MeshFaultLookBack(sc.faultTpl); lb > 0 {
			cfg.LookBack = lb
		}
		depTraceSec = 2400
	} else {
		var err error
		sys, err = sc.build(sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		fault = sc.fault(sc.inject)
	}
	if err := sys.Inject(fault); err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(sc.inject + 1100)
	tv, found := sys.FirstViolation(sc.inject, sc.sustain)
	if !found {
		t.Fatalf("%s: no SLO violation within the horizon", sc.name)
	}
	deps := fchain.DiscoverDependencies(sys.DependencyTrace(depTraceSec, sc.seed), fchain.DiscoverConfig{})
	return sys, tv, deps, cfg
}

// clusterDiagnosis localizes the scenario through a cluster: one slave per
// component, flat (nAggs == 0) or fanned out through aggregators, and
// returns the diagnosis rendered as canonical JSON.
func clusterDiagnosis(t *testing.T, sys *scenario.System, tv int64, deps *fchain.DependencyGraph, cfg fchain.Config, nAggs int) []byte {
	t.Helper()
	master := fchain.NewMaster(cfg, deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	sink := &fchain.ObservabilitySink{Metrics: obs.NewRegistry()}
	aggs := make([]*fchain.Aggregator, nAggs)
	for i := range aggs {
		agg := fchain.NewAggregator("agg-"+string(rune('a'+i)), fchain.WithAggregatorObs(sink))
		if err := agg.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := agg.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agg.Close() })
		aggs[i] = agg
	}

	comps := sys.Components()
	for i, comp := range comps {
		var opts []fchain.SlaveOption
		if nAggs > 0 {
			opts = append(opts, fchain.WithVia("agg-"+string(rune('a'+i%nAggs))))
		}
		sl := fchain.NewSlave("host-"+comp, []string{comp}, cfg, opts...)
		for _, k := range fchain.Kinds() {
			s, err := sys.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < s.Len() && s.TimeAt(j) <= tv; j++ {
				if err := sl.Observe(comp, s.TimeAt(j), k, s.At(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		if nAggs > 0 {
			if err := sl.Connect(aggs[i%nAggs].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(func() { sl.Close() })
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(master.Slaves()) < len(comps) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d slaves registered", len(master.Slaves()), len(comps))
		}
		time.Sleep(5 * time.Millisecond)
	}

	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1 {
		t.Fatalf("coverage %.3f (missing %v), want 1", res.Coverage(), res.MissingComponents)
	}
	if nAggs > 0 {
		if got := sink.Registry().Counter("fchain_subtree_analyze_total", "").Value(); got < 1 {
			t.Errorf("subtree analyze count = %d; aggregator tier silently unused", got)
		}
	}
	raw, err := json.Marshal(res.Diagnosis)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTopologyDiagnosisParity pins the aggregator tier against the committed
// goldens: for every canonical fault scenario, a flat master/slave cluster
// and a two-aggregator tree must produce byte-identical diagnoses, and both
// must name exactly the culprits the golden report pinned.
func TestTopologyDiagnosisParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fault-injection simulations")
	}
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			sys, tv, deps, cfg := buildScenario(t, sc)
			flat := clusterDiagnosis(t, sys, tv, deps, cfg, 0)
			tree := clusterDiagnosis(t, sys, tv, deps, cfg, 2)
			if !bytes.Equal(flat, tree) {
				t.Errorf("tree diagnosis differs from flat:\n flat: %s\n tree: %s", flat, tree)
			}

			raw, err := os.ReadFile(golden.Path(sc.name + ".json"))
			if err != nil {
				t.Fatal(err)
			}
			var want struct {
				Culprits []string `json:"culprits"`
			}
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			var got fchain.Diagnosis
			if err := json.Unmarshal(flat, &got); err != nil {
				t.Fatal(err)
			}
			if names := got.CulpritNames(); !equalStrings(names, want.Culprits) {
				t.Errorf("cluster culprits = %v, golden pinned %v", names, want.Culprits)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
