package cluster

// Warm-standby failover tests: the kill-mid-localize chaos paths for the
// replication channel. The tentpole property is byte-identity — a component
// promoted onto its warm standby must reproduce the dead owner's control
// onset and diagnosis JSON exactly, with no checkpoint-directory read on the
// warm path (the tests prove it by running without any checkpoint dir).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/core"
	"fchain/internal/faultnet"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// shadowMatches reports whether standby's shadow monitor for comp is
// byte-identical to owner's live monitor — the replication channel has fully
// caught up and a promotion right now would be exact.
func shadowMatches(t *testing.T, owner, standby *Slave, comp string) bool {
	t.Helper()
	owner.mu.Lock()
	pm := owner.monitors.Load().byName[comp]
	owner.mu.Unlock()
	standby.mu.Lock()
	sm := standby.shadows[comp]
	standby.mu.Unlock()
	if pm == nil || sm == nil {
		return false
	}
	return bytes.Equal(fullFrame(t, pm), fullFrame(t, sm))
}

// waitReplicated blocks until every registered component has a caught-up
// standby whose shadow state matches its owner byte-for-byte.
func waitReplicated(t *testing.T, master *Master, slaves map[string]*Slave, comps []string) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		for _, comp := range comps {
			owner, ok := master.Owner(comp)
			if !ok {
				return false
			}
			st, ok := master.Standby(comp)
			if !ok || !master.StandbyCaughtUp(comp) {
				return false
			}
			if !shadowMatches(t, slaves[owner], slaves[st], comp) {
				return false
			}
		}
		return true
	}, "replication to catch up on every component")
}

// journalEvents reads and buckets the journal written at path.
func journalEvents(t *testing.T, path string) map[string][]map[string]any {
	t.Helper()
	events, err := obs.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]map[string]any)
	for _, ev := range events {
		var data map[string]any
		if len(ev.Data) > 0 {
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				t.Fatalf("malformed %s event: %v", ev.Type, err)
			}
		}
		out[ev.Type] = append(out[ev.Type], data)
	}
	return out
}

// TestWarmFailoverReproducesDiagnosisExactly is the kill-mid-localize
// acceptance path for warm failover: with replication on and NO checkpoint
// directory anywhere, killing the owner of the culprit component and
// rebalancing must promote every orphan onto its standby's shadow monitor and
// reproduce the control diagnosis byte-identically. A cold start would leave
// empty monitors (there is no checkpoint to fall back to), so byte-identity
// is also the proof that the warm path never touched a checkpoint.
func TestWarmFailoverReproducesDiagnosisExactly(t *testing.T) {
	journalPath := t.TempDir() + "/failover.journal"
	journal, err := obs.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := &obs.Sink{Metrics: reg, Journal: journal}

	// Master and slaves share the sink so failover, relay, and promotion
	// events land in one journal and reconcile against one registry.
	master, slaves, tv := shardedScenarioCluster(t, 5, 3,
		[]SlaveOption{WithReplication(20 * time.Millisecond), WithReconnect(false), WithSlaveObs(sink)},
		WithStandby(true), WithMasterObs(sink))

	comps := make([]string, 0)
	for _, owned := range master.Assignments() {
		comps = append(comps, owned...)
	}
	waitReplicated(t, master, slaves, comps)

	want, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if names := want.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("control diagnosis = %v, want [db]", names)
	}

	victimName, ok := master.Owner(apps.DB)
	if !ok {
		t.Fatal("db not placed")
	}
	victimOwned := append([]string(nil), master.Assignments()[victimName]...)
	wantOwner := make(map[string]string, len(victimOwned))
	for _, comp := range victimOwned {
		st, ok := master.Standby(comp)
		if !ok {
			t.Fatalf("component %s has no standby", comp)
		}
		wantOwner[comp] = st
	}

	if err := slaves[victimName].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "victim eviction")
	moved, err := master.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved < len(victimOwned) {
		t.Fatalf("recovery rebalance moved %d components, want at least the victim's %d", moved, len(victimOwned))
	}
	for comp, st := range wantOwner {
		if owner, _ := master.Owner(comp); owner != st {
			t.Errorf("component %s promoted onto %s, want its standby %s", comp, owner, st)
		}
	}

	got, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage() != 1 {
		t.Fatalf("post-failover coverage = %v (missing %v), want 1", got.Coverage(), got.MissingComponents)
	}
	if a, b := diagnosisJSON(t, want), diagnosisJSON(t, got); !bytes.Equal(a, b) {
		t.Errorf("diagnosis changed across warm failover:\n before: %s\n after:  %s", a, b)
	}

	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sl := range slaves {
		sl.Close()
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events := journalEvents(t, journalPath)

	warm := make(map[string]bool)
	for _, ev := range events["failover"] {
		if ev["mode"] != "warm" {
			t.Errorf("failover event not warm: %v", ev)
			continue
		}
		warm[ev["component"].(string)] = true
	}
	if len(warm) != len(victimOwned) {
		t.Errorf("journal has warm failovers for %d components, want %d", len(warm), len(victimOwned))
	}
	for _, comp := range victimOwned {
		if !warm[comp] {
			t.Errorf("no warm failover event for %s", comp)
		}
	}
	promoted := make(map[string]bool)
	for _, ev := range events["replica_promoted"] {
		promoted[ev["component"].(string)] = true
	}
	for _, comp := range victimOwned {
		if !promoted[comp] {
			t.Errorf("no replica_promoted event for %s", comp)
		}
	}
	// The warm path must never fall back to checkpoints: handoff_cold with a
	// named donor is the cold-start marker (from == "" is first placement).
	for _, ev := range events["handoff_cold"] {
		if from, _ := ev["from"].(string); from != "" {
			t.Errorf("cold handoff during warm failover: %v", ev)
		}
	}
	if n := reg.CounterWith("fchain_failover_total", "", map[string]string{"mode": "warm"}).Value(); n != int64(len(victimOwned)) {
		t.Errorf("fchain_failover_total{mode=warm} = %d, want %d", n, len(victimOwned))
	}
	if n := reg.CounterWith("fchain_failover_total", "", map[string]string{"mode": "cold"}).Value(); n != 0 {
		t.Errorf("fchain_failover_total{mode=cold} = %d, want 0", n)
	}
}

// TestDoubleFailureFallsBackCold kills a component's primary AND standby
// between replication ticks: with nowhere warm to go, the rebalance must fall
// back to the shared-checkpoint cold path, keep coverage accounting exact
// through the outage, journal the failover as mode=cold, and still reproduce
// the control diagnosis byte-identically from the checkpoint files.
func TestDoubleFailureFallsBackCold(t *testing.T) {
	journalPath := t.TempDir() + "/double.journal"
	journal, err := obs.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{Metrics: obs.NewRegistry(), Journal: journal}

	// Every slave reaches the master only through a severable faultnet proxy,
	// so both deaths are abrupt network kills, not clean shutdowns: the only
	// recoverable state is the last explicit checkpoint.
	shared := t.TempDir()
	sim, tv, deps := faultScenario(t, 5)
	master := NewMaster(core.Config{}, deps, WithSharding(0), WithAutoRebalance(false),
		WithStandby(true), WithMasterObs(sink))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	fab := faultnet.NewFabric()
	slaves := make(map[string]*Slave, 4)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("shard-%d", i)
		proxy, err := faultnet.NewProxy(master.Addr(), faultnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		fab.Link("master", name, proxy)
		sl := NewSlave(name, nil, core.Config{},
			WithReplication(20*time.Millisecond), WithReconnect(false),
			WithCheckpointDir(shared))
		if err := sl.Connect(proxy.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
		slaves[name] = sl
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 4 }, "slaves to register")
	master.RegisterComponents(sim.Components()...)
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for _, comp := range sim.Components() {
		owner, ok := master.Owner(comp)
		if !ok {
			t.Fatalf("component %s not placed", comp)
		}
		for _, k := range metric.Kinds {
			series, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < series.Len() && series.TimeAt(i) <= tv; i++ {
				if err := slaves[owner].Observe(comp, series.TimeAt(i), k, series.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	waitReplicated(t, master, slaves, sim.Components())

	want, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if names := want.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("control diagnosis = %v, want [db]", names)
	}

	// Checkpoint everything, then kill db's primary and standby abruptly in
	// the inter-tick window.
	for _, sl := range slaves {
		if err := sl.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	primary, _ := master.Owner(apps.DB)
	standby, ok := master.Standby(apps.DB)
	if !ok || standby == primary {
		t.Fatalf("db standby = %q (primary %q), want a distinct standby", standby, primary)
	}
	lostComps := make(map[string]bool)
	for _, name := range []string{primary, standby} {
		for _, comp := range master.Assignments()[name] {
			lostComps[comp] = true
		}
	}
	fab.Partition([]string{primary, standby}, []string{"master"})
	waitFor(t, 5*time.Second, func() bool { return len(master.Slaves()) == 2 }, "double eviction")

	// Exact coverage accounting through the outage: the missing set is
	// exactly the union of the two dead slaves' assignments.
	degraded, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded {
		t.Error("double-failure localize not marked degraded")
	}
	if len(degraded.MissingComponents) != len(lostComps) {
		t.Fatalf("missing %v, want exactly the dead slaves' %d components", degraded.MissingComponents, len(lostComps))
	}
	for _, comp := range degraded.MissingComponents {
		if !lostComps[comp] {
			t.Fatalf("component %s reported missing but its owner is alive", comp)
		}
	}

	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	got, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage() != 1 {
		t.Fatalf("post-recovery coverage = %v (missing %v), want 1", got.Coverage(), got.MissingComponents)
	}
	if a, b := diagnosisJSON(t, want), diagnosisJSON(t, got); !bytes.Equal(a, b) {
		t.Errorf("diagnosis changed across double-failure cold recovery:\n before: %s\n after:  %s", a, b)
	}

	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events := journalEvents(t, journalPath)
	dbMode := ""
	for _, ev := range events["failover"] {
		if ev["component"] == apps.DB {
			dbMode, _ = ev["mode"].(string)
		}
	}
	if dbMode != "cold" {
		t.Errorf("db failover mode = %q, want cold (its standby died too)", dbMode)
	}
}

// TestReplicationMetricsJournalReconcile churns membership under replication
// and reconciles the registry against the journal exactly: failover counters
// against failover events by mode, promotion counters against
// replica_promoted events, relayed bytes against the repl_relay byte sum, and
// the per-slave lag gauge against the slave's last repl_tick event.
func TestReplicationMetricsJournalReconcile(t *testing.T) {
	journalPath := t.TempDir() + "/repl.journal"
	journal, err := obs.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := &obs.Sink{Metrics: reg, Journal: journal}

	master := NewMaster(core.Config{}, nil, WithSharding(0), WithAutoRebalance(false),
		WithStandby(true), WithMasterObs(sink))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	slaveOpts := []SlaveOption{WithReplication(20 * time.Millisecond), WithReconnect(false), WithSlaveObs(sink)}
	slaves := startShardedSlaves(t, master, 3, slaveOpts...)

	var comps []string
	for i := 0; i < 12; i++ {
		comps = append(comps, fmt.Sprintf("r%02d", i))
	}
	master.RegisterComponents(comps...)
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for _, comp := range comps {
		owner, _ := master.Owner(comp)
		for ts := int64(1); ts <= 40; ts++ {
			for _, k := range metric.Kinds {
				if err := slaves[owner].Observe(comp, ts, k, float64((ts*int64(k))%11)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	waitReplicated(t, master, slaves, comps)

	// Churn: one eviction (warm failovers), then one join (standby movement).
	slaves["shard-0"].Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "eviction")
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	late := NewSlave("shard-late", nil, core.Config{}, slaveOpts...)
	if err := late.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { late.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 3 }, "late join")
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	slaves["shard-late"] = late
	delete(slaves, "shard-0")
	waitReplicated(t, master, slaves, comps)

	// Quiesce every writer before reading the journal back.
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sl := range slaves {
		sl.Close()
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events := journalEvents(t, journalPath)

	modes := map[string]int64{}
	for _, ev := range events["failover"] {
		modes[ev["mode"].(string)]++
	}
	for _, mode := range []string{"warm", "cold"} {
		if got := reg.CounterWith("fchain_failover_total", "", map[string]string{"mode": mode}).Value(); got != modes[mode] {
			t.Errorf("fchain_failover_total{mode=%s} = %d, journal says %d", mode, got, modes[mode])
		}
	}
	if modes["warm"] == 0 {
		t.Error("churn produced no warm failovers; the reconciliation is vacuous")
	}
	if got := reg.Counter("fchain_replica_promotions_total", "").Value(); got != int64(len(events["replica_promoted"])) {
		t.Errorf("fchain_replica_promotions_total = %d, journal has %d replica_promoted events",
			got, len(events["replica_promoted"]))
	}
	var relayBytes int64
	for _, ev := range events["repl_relay"] {
		relayBytes += int64(ev["bytes"].(float64))
	}
	if relayBytes == 0 {
		t.Error("journal records no relayed bytes")
	}
	if got := reg.Counter("fchain_repl_bytes_total", "").Value(); got != relayBytes {
		t.Errorf("fchain_repl_bytes_total = %d, journal repl_relay sum = %d", got, relayBytes)
	}
	lastLag := map[string]float64{}
	for _, ev := range events["repl_tick"] {
		lastLag[ev["slave"].(string)] = ev["lag_seconds"].(float64)
	}
	if len(lastLag) == 0 {
		t.Fatal("journal records no replication ticks")
	}
	for slave, lag := range lastLag {
		if got := reg.GaugeWith("fchain_repl_lag_seconds", "", map[string]string{"slave": slave}).Value(); got != lag {
			t.Errorf("fchain_repl_lag_seconds{slave=%s} = %v, last repl_tick says %v", slave, got, lag)
		}
	}
}

// TestReplFullFramesCountedByCause drives one owner's ships through every
// reason a frame goes out full and reads fchain_repl_full_total back: the
// first ship, a metric's first samples, eviction past a floor, a long gap
// that severs the history, a standby's NAK and a placement reset. An
// incremental ship between them counts nothing.
func TestReplFullFramesCountedByCause(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := core.Config{RingCapacity: 8}
	s := NewSlave("s1", nil, cfg, WithSlaveObs(&obs.Sink{Metrics: reg}))
	t.Cleanup(func() { s.Close() })
	mon := core.NewMonitor("db", cfg)
	monitors := map[string]*core.Monitor{"db": mon}
	var wire bufConn
	w := newConnWriter(&wire)
	ts := int64(0)
	ingest := func(n int, kinds ...metric.Kind) {
		for range n {
			ts++
			for _, k := range kinds {
				if err := mon.Ingest(ts, k, float64(ts%5)); err != nil {
					t.Fatal(err)
				}
			}
		}
		mon.FlushIngest(ts)
	}
	counts := map[string]int64{}
	ship := func(cause string) {
		t.Helper()
		if !s.ship(w, []string{"db"}, monitors) {
			t.Fatal("ship failed")
		}
		if cause != "" {
			counts[cause]++
		}
		for _, c := range []string{"first", "new_metric", "sever", "eviction", "nak", "reset"} {
			got := reg.CounterWith("fchain_repl_full_total", "", map[string]string{"cause": c}).Value()
			if got != counts[c] {
				t.Fatalf("after a ship expected to count %q: fchain_repl_full_total{cause=%s} = %d, want %d",
					cause, c, got, counts[c])
			}
		}
	}
	ingest(3, metric.CPU)
	ship("first")
	ingest(1, metric.CPU)
	ship("")
	ingest(1, metric.CPU, metric.Memory)
	ship("new_metric")
	ingest(9, metric.CPU, metric.Memory)
	ship("eviction")
	ts += 100
	ingest(1, metric.CPU, metric.Memory)
	ship("sever")
	s.forgetFloors([]string{"db"}, core.FullNAK)
	ship("nak")
	s.forgetFloors([]string{"db"}, core.FullReset)
	ship("reset")
	ingest(1, metric.CPU, metric.Memory)
	ship("")
}

// TestStandbyKeepsNoFullFrame: a standby decodes every replicate frame of a
// connection into one reused ReplDelta, whose runs alias the frame's body.
// After a full frame, ring-sized and rare, that delta must hold nothing, or
// each connection would keep its last full frame's body and models alive.
func TestStandbyKeepsNoFullFrame(t *testing.T) {
	cfg := core.Config{RingCapacity: 8}
	s := NewSlave("s2", nil, cfg)
	t.Cleanup(func() { s.Close() })
	primary := core.NewMonitor("db", cfg)
	for ts := int64(1); ts <= 8; ts++ {
		if err := primary.ObserveVector(ts, &metric.Vector{}); err != nil {
			t.Fatal(err)
		}
	}
	var wire bufConn
	w := newConnWriter(&wire)
	var delta core.ReplDelta
	s.handleReplicate(w, &envelope{Type: typeReplicate, ID: 1, Component: "db", Seq: 1,
		State: fullFrame(t, primary)}, &delta)
	s.mu.Lock()
	shadow := s.shadows["db"]
	s.mu.Unlock()
	if shadow == nil || !bytes.Equal(fullFrame(t, shadow), fullFrame(t, primary)) {
		t.Fatal("the full frame did not build the primary's shadow")
	}
	if !reflect.DeepEqual(delta, core.ReplDelta{}) {
		t.Error("the connection's delta still holds the full frame")
	}
}
