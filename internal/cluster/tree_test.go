package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/cloudsim"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/faultnet"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// startTreeCluster boots a master, nAggs aggregators, and one dual-registered
// slave per simulation component (direct to the master plus through its
// aggregator), with the scenario fed up to tv.
func startTreeCluster(t *testing.T, sim *cloudsim.Sim, tv int64, deps *depgraph.Graph, nAggs int, aggOpts ...AggregatorOption) (*Master, []*Aggregator) {
	t.Helper()
	master := NewMaster(core.Config{}, deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	aggs := make([]*Aggregator, nAggs)
	for i := range aggs {
		agg := NewAggregator(aggName(i), aggOpts...)
		if err := agg.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := agg.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agg.Close() })
		aggs[i] = agg
	}
	waitFor(t, 2*time.Second, func() bool {
		master.mu.Lock()
		defer master.mu.Unlock()
		return len(master.aggs) == nAggs
	}, "aggregators to register with the master")

	comps := sim.Components()
	for i, comp := range comps {
		agg := aggs[i%nAggs]
		sl := NewSlave("host-"+comp, []string{comp}, core.Config{}, WithVia(agg.name))
		for _, k := range metric.Kinds {
			series, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < series.Len() && series.TimeAt(j) <= tv; j++ {
				if err := sl.Observe(comp, series.TimeAt(j), k, series.At(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := sl.Connect(agg.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == len(comps) }, "tree slaves to register")
	for i, agg := range aggs {
		want := 0
		for j := range comps {
			if j%nAggs == i {
				want++
			}
		}
		agg, want := agg, want
		waitFor(t, 2*time.Second, func() bool { return len(agg.Slaves()) == want }, "subtree registrations")
	}
	return master, aggs
}

func aggName(i int) string { return "agg-" + string(rune('a'+i)) }

// TestTreeTopologyMatchesFlatDiagnosis pins the aggregator tier's merge
// losslessness: the same scenario localized through a flat fan-out and
// through two aggregators must yield byte-identical diagnoses.
func TestTreeTopologyMatchesFlatDiagnosis(t *testing.T) {
	sim, tv, deps := faultScenario(t, 1)

	flatMaster, _ := startCluster(t, sim, tv, deps)
	flat, err := flatMaster.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if names := flat.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("flat diagnosis = %v, want [db]", names)
	}

	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	treeMaster, _ := startTreeCluster(t, sim, tv, deps, 2, WithAggregatorObs(sink))
	tree, err := treeMaster.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if tree.SlavesAnswered != flat.SlavesAnswered || tree.Coverage() != 1 {
		t.Fatalf("tree coverage %v (answered %d), want full", tree.Coverage(), tree.SlavesAnswered)
	}
	if a, b := diagnosisJSON(t, flat), diagnosisJSON(t, tree); !bytes.Equal(a, b) {
		t.Errorf("tree diagnosis differs from flat:\n flat: %s\n tree: %s", a, b)
	}
	// The tree path must actually have been used, not silently fallen back.
	if got := sink.Registry().Counter("fchain_subtree_analyze_total", "").Value(); got < 2 {
		t.Errorf("subtree analyze count = %d, want >= 2 (one per aggregator)", got)
	}
}

// TestAggregatorDeathFallsBackToDirect closes an aggregator before the
// localization: its subtree must be asked over the slaves' direct
// connections, costing nothing but the tree.
func TestAggregatorDeathFallsBackToDirect(t *testing.T) {
	sim, tv, deps := faultScenario(t, 2)
	master, aggs := startTreeCluster(t, sim, tv, deps, 2)
	aggs[0].Close()
	waitFor(t, 2*time.Second, func() bool {
		master.mu.Lock()
		defer master.mu.Unlock()
		return len(master.aggs) == 1
	}, "dead aggregator removal")

	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1 {
		t.Fatalf("coverage after aggregator death = %v (missing %v), want 1", res.Coverage(), res.MissingComponents)
	}
	if names := res.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Errorf("diagnosis after aggregator death = %v, want [db]", names)
	}
}

// TestAggregatorPartitionMidLocalize partitions the master↔aggregator link
// after the subtree analyze has already fanned out (triggered from inside the
// first slave's analyze handler): the aggregator can no longer deliver its
// merged answer, so the master must detect the dead link and re-ask every
// subtree member directly — full coverage, correct verdict.
func TestAggregatorPartitionMidLocalize(t *testing.T) {
	sim, tv, deps := faultScenario(t, 3)

	master := NewMaster(core.Config{}, deps,
		WithMasterObs(&obs.Sink{Metrics: obs.NewRegistry()}))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	// The aggregator reaches the master only through a severable proxy.
	proxy, err := faultnet.NewProxy(master.Addr(), faultnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	fab := faultnet.NewFabric()
	fab.Link("master", "agg-a", proxy)

	agg := NewAggregator("agg-a", WithAggregatorBackoff(50*time.Millisecond, 200*time.Millisecond))
	if err := agg.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	if err := agg.Connect(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		master.mu.Lock()
		defer master.mu.Unlock()
		return len(master.aggs) == 1
	}, "aggregator registration")

	comps := sim.Components()
	for _, comp := range comps {
		sl := NewSlave("host-"+comp, []string{comp}, core.Config{}, WithVia("agg-a"))
		for _, k := range metric.Kinds {
			series, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < series.Len() && series.TimeAt(j) <= tv; j++ {
				if err := sl.Observe(comp, series.TimeAt(j), k, series.At(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := sl.Connect(agg.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == len(comps) }, "slaves to register")
	waitFor(t, 2*time.Second, func() bool { return len(agg.Slaves()) == len(comps) }, "subtree registrations")

	// Fired by the first analyze that reaches a slave — i.e. after the
	// aggregator's subtree fan-out began — so the partition lands mid-flight.
	var once sync.Once
	hook := func(slave string, tv int64) {
		once.Do(func() { fab.Partition([]string{"master"}, []string{"agg-a"}) })
	}
	slaveAnalyzeHook.Store(&hook)
	defer slaveAnalyzeHook.Store(nil)

	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1 {
		t.Fatalf("coverage after mid-localize partition = %v (missing %v), want 1",
			res.Coverage(), res.MissingComponents)
	}
	if names := res.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Errorf("diagnosis after mid-localize partition = %v, want [db]", names)
	}
	if got := master.obs.Registry().Counter("fchain_aggregator_fallbacks_total", "").Value(); got < int64(len(comps)) {
		t.Errorf("aggregator fallbacks = %d, want >= %d (whole subtree re-asked)", got, len(comps))
	}
}
