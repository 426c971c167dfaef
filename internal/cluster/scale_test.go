package cluster

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"fchain/internal/core"
	"fchain/internal/faultnet"
	"fchain/internal/obs"
)

// TestScaleTenThousandComponents drives the issue's headline number: a
// 10,000-component application sharded over 8 slaves behind 2 aggregators
// must localize inside a 2-second deadline, report exact coverage, degrade to
// the exact missing set when faultnet kills a slave mid-flight, and — with
// warm-standby replication on — recover full coverage through standby
// promotion alone: no cold starts, and the promoting rebalance bounded under
// 500ms because it moves no state.
func TestScaleTenThousandComponents(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-component fleet: skipped in short mode")
	}
	if raceEnabled {
		t.Skip("10k-component fleet is impractically slow under the race detector")
	}

	// Small per-monitor footprint: 10,000 monitors at the default ring and
	// bootstrap sizes would need gigabytes and tens of seconds.
	cfg := core.Config{LookBack: 30, BurstWindow: 5, RingCapacity: 64, MarkovBins: 6, Bootstraps: 20}

	reg := obs.NewRegistry()
	master := NewMaster(cfg, nil,
		WithSharding(0), WithAutoRebalance(false),
		func(m *Master) { m.handoffTimeout = 500 * time.Millisecond }, // fail fast on a stalled move
		WithStandby(true), WithMasterObs(&obs.Sink{Metrics: reg}))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	const nAggs, nSlaves = 2, 8
	aggs := make([]*Aggregator, nAggs)
	for i := range aggs {
		agg := NewAggregator(aggName(i))
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
	}, "aggregators to register")

	// The victim reaches both its upstreams only through severable proxies,
	// so its death is a network event injected by faultnet, not a clean
	// shutdown with final checkpoints.
	const victim = "shard-7"
	fab := faultnet.NewFabric()
	for i := 0; i < nSlaves; i++ {
		name := fmt.Sprintf("shard-%d", i)
		agg := aggs[i%nAggs]
		sl := NewSlave(name, nil, cfg, WithVia(agg.name), WithReconnect(false),
			WithReplication(100*time.Millisecond))
		masterAddr, aggAddr := master.Addr(), agg.Addr()
		if name == victim {
			pm, err := faultnet.NewProxy(master.Addr(), faultnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pm.Close() })
			pa, err := faultnet.NewProxy(agg.Addr(), faultnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pa.Close() })
			fab.Link("master", name, pm)
			fab.Link(agg.name, name, pa)
			masterAddr, aggAddr = pm.Addr(), pa.Addr()
		}
		if err := sl.Connect(masterAddr); err != nil {
			t.Fatal(err)
		}
		if err := sl.Connect(aggAddr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
	}
	waitFor(t, 5*time.Second, func() bool { return len(master.Slaves()) == nSlaves }, "slaves to register")
	for _, agg := range aggs {
		agg := agg
		waitFor(t, 5*time.Second, func() bool { return len(agg.Slaves()) == nSlaves/nAggs }, "subtree registrations")
	}

	const nComps = 10000
	comps := make([]string, nComps)
	for i := range comps {
		comps[i] = fmt.Sprintf("comp-%05d", i)
	}
	master.RegisterComponents(comps...)
	moved, err := master.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved != nComps {
		t.Fatalf("initial placement moved %d components, want %d", moved, nComps)
	}

	const tv = 1700
	localize := func(label string) core.LocalizeResult {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		start := time.Now()
		res, err := master.Localize(ctx, tv)
		if err != nil {
			t.Fatalf("%s localize: %v", label, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s localize took %v, want < 2s", label, elapsed)
		}
		return res
	}

	res := localize("pre-kill")
	if res.Coverage() != 1 || res.ComponentsReported != nComps || res.SlavesAnswered != nSlaves {
		t.Fatalf("pre-kill coverage %.4f (%d/%d components, %d/%d slaves), want full",
			res.Coverage(), res.ComponentsReported, res.ComponentsKnown, res.SlavesAnswered, res.SlavesTotal)
	}

	// Kill the victim: its exact assignment must surface as the missing set.
	victimOwned := append([]string(nil), master.Assignments()[victim]...)
	if len(victimOwned) == 0 {
		t.Fatalf("victim %s owns nothing", victim)
	}
	// Wait for replication to warm every victim component's standby, and pin
	// the promotion targets so the recovery can be checked to be pure
	// promotion.
	waitFor(t, 15*time.Second, func() bool {
		for _, comp := range victimOwned {
			if !master.StandbyCaughtUp(comp) {
				return false
			}
		}
		return true
	}, "victim components' standbys to catch up")
	standbyOf := make(map[string]string, len(victimOwned))
	for _, comp := range victimOwned {
		st, ok := master.Standby(comp)
		if !ok || st == victim {
			t.Fatalf("component %s standby = %q, want a live standby", comp, st)
		}
		standbyOf[comp] = st
	}
	fab.Partition([]string{victim}, []string{"master", aggs[1%nAggs].name})
	waitFor(t, 5*time.Second, func() bool { return len(master.Slaves()) == nSlaves-1 }, "victim eviction")

	degraded := localize("post-kill")
	if !degraded.Degraded {
		t.Error("post-kill result not marked degraded")
	}
	sort.Strings(victimOwned)
	if got := degraded.MissingComponents; len(got) != len(victimOwned) {
		t.Fatalf("post-kill missing %d components, want exactly the victim's %d", len(got), len(victimOwned))
	} else {
		for i := range got {
			if got[i] != victimOwned[i] {
				t.Fatalf("missing[%d] = %s, want %s (victim's assignment)", i, got[i], victimOwned[i])
			}
		}
	}
	wantCov := float64(nComps-len(victimOwned)) / float64(nComps)
	if degraded.Coverage() != wantCov {
		t.Errorf("post-kill coverage %.6f, want exactly %.6f", degraded.Coverage(), wantCov)
	}

	// Rebalancing promotes every orphan onto its warm standby in place: no
	// handoffs, no checkpoint reads, so the pass itself is bounded — well
	// under the 500ms failover budget to restored coverage.
	start := time.Now()
	moved, err = master.Rebalance()
	failover := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(victimOwned) {
		t.Errorf("recovery rebalance moved %d components, want %d", moved, len(victimOwned))
	}
	if failover >= 500*time.Millisecond {
		t.Errorf("promoting rebalance took %v, want < 500ms", failover)
	}
	for _, comp := range victimOwned {
		if owner, _ := master.Owner(comp); owner != standbyOf[comp] {
			t.Fatalf("component %s recovered onto %s, want its standby %s", comp, owner, standbyOf[comp])
		}
	}
	if warm := reg.CounterWith("fchain_failover_total", "", map[string]string{"mode": "warm"}).Value(); warm != int64(len(victimOwned)) {
		t.Errorf("fchain_failover_total{mode=warm} = %d, want %d", warm, len(victimOwned))
	}
	if cold := reg.CounterWith("fchain_failover_total", "", map[string]string{"mode": "cold"}).Value(); cold != 0 {
		t.Errorf("fchain_failover_total{mode=cold} = %d, want 0 (no cold starts)", cold)
	}
	healed := localize("post-rebalance")
	if healed.Coverage() != 1 || healed.ComponentsReported != nComps {
		t.Fatalf("post-rebalance coverage %.4f (%d/%d), want full",
			healed.Coverage(), healed.ComponentsReported, healed.ComponentsKnown)
	}
}
