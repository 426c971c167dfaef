package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/core"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// startShardedSlaves boots n empty slaves (no components of their own — the
// master owns placement) against master and waits for their registrations.
func startShardedSlaves(t *testing.T, master *Master, n int, opts ...SlaveOption) map[string]*Slave {
	t.Helper()
	slaves := make(map[string]*Slave, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		sl := NewSlave(name, nil, core.Config{}, opts...)
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
		slaves[name] = sl
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) >= n }, "sharded slaves to register")
	return slaves
}

// TestShardedAssignmentEnforcement pins the placement contract: after a
// rebalance every registered component has exactly one owner, each slave
// monitors exactly its assignment, and feeding an unowned component errors.
func TestShardedAssignmentEnforcement(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithSharding(0), WithAutoRebalance(false))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	slaves := startShardedSlaves(t, master, 3)

	var comps []string
	for i := 0; i < 20; i++ {
		comps = append(comps, fmt.Sprintf("c%02d", i))
	}
	master.RegisterComponents(comps...)
	moved, err := master.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(comps) {
		t.Errorf("first rebalance moved %d components, want %d", moved, len(comps))
	}

	asn := master.Assignments()
	ownerOf := make(map[string]string)
	for owner, owned := range asn {
		if _, ok := slaves[owner]; !ok {
			t.Errorf("assignment names unknown owner %q", owner)
		}
		for _, comp := range owned {
			if prev, dup := ownerOf[comp]; dup {
				t.Errorf("component %s assigned to both %s and %s", comp, prev, owner)
			}
			ownerOf[comp] = owner
		}
	}
	if len(ownerOf) != len(comps) {
		t.Fatalf("placement covers %d components, want %d", len(ownerOf), len(comps))
	}
	for _, comp := range comps {
		owner, ok := master.Owner(comp)
		if !ok || owner != ownerOf[comp] {
			t.Errorf("Owner(%s) = %q, %v; assignments say %q", comp, owner, ok, ownerOf[comp])
		}
	}

	// Rebalance waits for assignment acks, so every slave already monitors
	// exactly its owned set.
	for name, sl := range slaves {
		want := asn[name]
		got := sl.Monitored()
		if len(got) != len(want) {
			t.Errorf("slave %s monitors %v, assigned %v", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("slave %s monitors %v, assigned %v", name, got, want)
				break
			}
		}
	}

	// Ownership is enforced at Observe: the owner accepts the sample, any
	// other slave refuses it.
	comp := comps[0]
	owner := ownerOf[comp]
	if err := slaves[owner].Observe(comp, 1, metric.CPU, 10); err != nil {
		t.Errorf("owner %s rejected its own component %s: %v", owner, comp, err)
	}
	for name, sl := range slaves {
		if name == owner {
			continue
		}
		if err := sl.Observe(comp, 1, metric.CPU, 10); err == nil {
			t.Errorf("non-owner %s accepted component %s", name, comp)
		}
	}

	// A stable membership re-rebalance is a no-op.
	if moved, err := master.Rebalance(); err != nil || moved != 0 {
		t.Errorf("steady-state rebalance moved %d (err %v), want 0", moved, err)
	}
}

// TestFeedRacesAssign drives the owned set's copy-on-write publication from
// both sides at once: a feeder ingests every component while assign frames
// swap which of them the slave owns and readers walk the set. Under -race
// this is the check that the feed needs no slave lock; afterwards the slave
// owns exactly the last assignment and refuses what it gave away.
func TestFeedRacesAssign(t *testing.T) {
	sl := NewSlave("s", []string{"a", "b"}, core.Config{})
	t.Cleanup(func() { sl.Close() })
	conn, peer := net.Pipe()
	t.Cleanup(func() { conn.Close(); peer.Close() })
	go io.Copy(io.Discard, peer) // the acks
	w := newConnWriter(conn)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ts := int64(0); ; ts++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, comp := range []string{"a", "b", "c"} {
				_ = sl.Ingest(comp, ts, metric.CPU, float64(ts%7)) // unowned components error
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sl.Quality()
			if names := sl.Monitored(); len(names) != 2 {
				t.Errorf("slave monitors %v mid-assign, want two components", names)
			}
		}
	}()
	sets := [][]string{{"b", "c"}, {"a", "c"}, {"a", "b"}}
	for i := 0; i < 300; i++ {
		sl.wg.Add(1)
		sl.handleAssign(w, &envelope{Type: typeAssign, ID: uint64(i + 1), Components: sets[i%len(sets)]})
	}
	close(stop)
	wg.Wait()

	if got := sl.Monitored(); fmt.Sprint(got) != fmt.Sprint(sets[299%len(sets)]) {
		t.Fatalf("slave monitors %v after the last assign, want %v", got, sets[299%len(sets)])
	}
	if err := sl.Ingest("c", 1e6, metric.CPU, 1); err == nil {
		t.Error("slave accepted a component it was assigned away from")
	}
}

// shardedScenarioCluster boots a sharded master over n empty slaves, places
// the scenario's components, and feeds each component's series to its owner.
func shardedScenarioCluster(t *testing.T, seed int64, n int, slaveOpts []SlaveOption, masterOpts ...MasterOption) (*Master, map[string]*Slave, int64) {
	t.Helper()
	sim, tv, deps := faultScenario(t, seed)
	opts := append([]MasterOption{WithSharding(0), WithAutoRebalance(false)}, masterOpts...)
	master := NewMaster(core.Config{}, deps, opts...)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	slaves := startShardedSlaves(t, master, n, slaveOpts...)
	master.RegisterComponents(sim.Components()...)
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for _, comp := range sim.Components() {
		owner, ok := master.Owner(comp)
		if !ok {
			t.Fatalf("component %s not placed", comp)
		}
		sl := slaves[owner]
		for _, k := range metric.Kinds {
			series, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < series.Len() && series.TimeAt(i) <= tv; i++ {
				if err := sl.Observe(comp, series.TimeAt(i), k, series.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return master, slaves, tv
}

func diagnosisJSON(t *testing.T, res core.LocalizeResult) []byte {
	t.Helper()
	raw, err := json.Marshal(res.Diagnosis)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardedLocalizeAndWarmHandoff runs the scenario over a sharded cluster,
// then grows the membership: the join's rebalance must move state warm (the
// donors ship it over the replication channel, though no slave here has a
// replication interval) so the diagnosis after the move is byte-identical to
// the one before it.
func TestShardedLocalizeAndWarmHandoff(t *testing.T) {
	master, _, tv := shardedScenarioCluster(t, 1, 2, nil)
	want, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if names := want.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("sharded diagnosis = %v, want [db]", names)
	}
	if want.Coverage() != 1 {
		t.Fatalf("sharded coverage = %v, want 1", want.Coverage())
	}

	// Grow the membership; the moved components' models ride along.
	joiner := NewSlave("shard-join", nil, core.Config{})
	if err := joiner.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 3 }, "joiner to register")
	moved, err := master.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("join rebalance moved nothing")
	}
	if got := joiner.Monitored(); len(got) == 0 {
		t.Fatal("joiner owns no components after rebalance")
	}

	got, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage() != 1 {
		t.Fatalf("post-join coverage = %v, want 1", got.Coverage())
	}
	if a, b := diagnosisJSON(t, want), diagnosisJSON(t, got); !bytes.Equal(a, b) {
		t.Errorf("diagnosis changed across a warm handoff:\n before: %s\n after:  %s", a, b)
	}
}

// TestKillAndRebalanceRestoresOnsetExactly is the kill-and-rebalance
// acceptance path: the donor dies before the rebalance, so the moved
// components cold-start from the shared checkpoint directory — and because
// checkpoint restore is byte-exact, the new owner must reproduce the donor's
// control onset (and the whole diagnosis) byte-identically.
func TestKillAndRebalanceRestoresOnsetExactly(t *testing.T) {
	shared := t.TempDir()
	master, slaves, tv := shardedScenarioCluster(t, 5, 2,
		[]SlaveOption{WithCheckpointDir(shared), WithReconnect(false)})
	want, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if names := want.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("control diagnosis = %v, want [db]", names)
	}

	donorName, ok := master.Owner(apps.DB)
	if !ok {
		t.Fatal("db not placed")
	}
	donor := slaves[donorName]
	// Close writes the final checkpoints, then the donor is "killed": the
	// master must move its components to the survivor, which restores them
	// from the shared checkpoint files (the handoff cold-start fallback).
	if err := donor.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "donor eviction")
	moved, err := master.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance after donor death moved nothing")
	}

	got, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage() != 1 {
		t.Fatalf("post-kill coverage = %v (missing %v), want 1", got.Coverage(), got.MissingComponents)
	}
	names := got.Diagnosis.CulpritNames()
	if len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("post-kill diagnosis = %v, want [db]", names)
	}
	if got.Diagnosis.Culprits[0].Onset != want.Diagnosis.Culprits[0].Onset {
		t.Errorf("post-kill onset = %d, control onset = %d",
			got.Diagnosis.Culprits[0].Onset, want.Diagnosis.Culprits[0].Onset)
	}
	if a, b := diagnosisJSON(t, want), diagnosisJSON(t, got); !bytes.Equal(a, b) {
		t.Errorf("diagnosis changed across kill-and-rebalance:\n before: %s\n after:  %s", a, b)
	}
}

// TestKillSlaveMidHandoff kills the donor inside the state transfer (via the
// chaos hook that runs for each move right before its donor is asked to
// ship): the rebalance must complete without wedging, and a follow-up pass
// must land every component on a live owner.
func TestKillSlaveMidHandoff(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithSharding(0), WithAutoRebalance(false),
		func(m *Master) { m.handoffTimeout = time.Second }) // bound the wait on the killed donor
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	slaves := startShardedSlaves(t, master, 2, WithReconnect(false))

	var comps []string
	for i := 0; i < 12; i++ {
		comps = append(comps, fmt.Sprintf("k%02d", i))
	}
	master.RegisterComponents(comps...)
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}

	joiner := NewSlave("shard-join", nil, core.Config{}, WithReconnect(false))
	if err := joiner.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 3 }, "joiner to register")

	// The first move toward the joiner kills its donor mid-transfer.
	var once sync.Once
	var killed string
	hook := func(comp, from, to string) {
		if to != "shard-join" || from == "" {
			return
		}
		once.Do(func() {
			killed = from
			slaves[from].Close()
		})
	}
	master.handoffHook.Store(&hook)
	defer master.handoffHook.Store(nil)

	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if killed == "" {
		t.Fatal("chaos hook never fired: no move toward the joiner")
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "killed donor eviction")
	master.handoffHook.Store(nil)
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}

	live := map[string]bool{"shard-join": true}
	for name := range slaves {
		if name != killed {
			live[name] = true
		}
	}
	placed := make(map[string]bool)
	for owner, owned := range master.Assignments() {
		if !live[owner] {
			t.Errorf("component(s) %v still owned by dead slave %s", owned, owner)
		}
		for _, comp := range owned {
			placed[comp] = true
		}
	}
	if len(placed) != len(comps) {
		t.Errorf("placement covers %d components after chaos, want %d", len(placed), len(comps))
	}
}

// TestFlappingMembershipSettles churns one slave through repeated join/leave
// cycles under auto-rebalance and verifies the placement converges back onto
// the stable members with every component owned.
func TestFlappingMembershipSettles(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithSharding(0))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	startShardedSlaves(t, master, 2, WithReconnect(false))

	var comps []string
	for i := 0; i < 16; i++ {
		comps = append(comps, fmt.Sprintf("f%02d", i))
	}
	master.RegisterComponents(comps...)
	placedOn := func(owners map[string]bool) func() bool {
		return func() bool {
			total := 0
			for owner, owned := range master.Assignments() {
				if !owners[owner] {
					return false
				}
				total += len(owned)
			}
			return total == len(comps)
		}
	}
	stable := map[string]bool{"shard-0": true, "shard-1": true}
	waitFor(t, 5*time.Second, placedOn(stable), "initial auto placement")

	for i := 0; i < 4; i++ {
		flap := NewSlave("flapper", nil, core.Config{}, WithReconnect(false))
		if err := flap.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 3 }, "flapper join")
		flap.Close()
		waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "flapper leave")
	}
	waitFor(t, 5*time.Second, placedOn(stable), "placement to settle after flapping")

	res, err := master.Localize(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.ComponentsReported != len(comps) {
		t.Errorf("post-flap localize covered %d/%d components (missing %v)",
			res.ComponentsReported, len(comps), res.MissingComponents)
	}
}

// TestMembershipJournalMetricsReconcile drives joins, an eviction, and
// rebalances under a journal-backed sink and reconciles the journal against
// the metrics registry exactly: members = joins - evictions, and the summed
// rebalance_done moved counts equal the rebalance components counter.
func TestMembershipJournalMetricsReconcile(t *testing.T) {
	journalPath := t.TempDir() + "/cluster.journal"
	journal, err := obs.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := &obs.Sink{Metrics: reg, Journal: journal}

	master := NewMaster(core.Config{}, nil, WithSharding(0), WithMasterObs(sink))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	slaves := startShardedSlaves(t, master, 3, WithReconnect(false))

	var comps []string
	for i := 0; i < 24; i++ {
		comps = append(comps, fmt.Sprintf("m%02d", i))
	}
	master.RegisterComponents(comps...)
	fullPlacement := func() bool {
		total := 0
		for _, owned := range master.Assignments() {
			total += len(owned)
		}
		return total == len(comps)
	}
	waitFor(t, 5*time.Second, fullPlacement, "initial auto placement")

	// One eviction...
	slaves["shard-0"].Close()
	waitFor(t, 5*time.Second, func() bool {
		return len(master.Slaves()) == 2 && len(master.Assignments()["shard-0"]) == 0
	}, "eviction rebalance")
	// ...then one late join.
	late := NewSlave("shard-late", nil, core.Config{}, WithReconnect(false))
	if err := late.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { late.Close() })
	waitFor(t, 5*time.Second, func() bool {
		return len(master.Assignments()["shard-late"]) > 0
	}, "join rebalance")

	// Every join and eviction has been counted by now. Read the gauge before
	// Close, whose teardown disconnects the remaining slaves without journaling
	// them as evicted.
	registered := reg.Gauge("fchain_slaves_registered", "").Value()
	// Close the master first: any in-flight rebalance pass finishes before
	// Close returns, so journal and registry are final when read.
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	joins, evictions := 0, 0
	var movedSum int64
	rebalances := 0
	for _, ev := range events {
		switch ev.Type {
		case "member_joined":
			joins++
		case "member_evicted":
			evictions++
		case "rebalance_done":
			var data struct {
				Moved int64 `json:"moved"`
			}
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				t.Fatalf("malformed rebalance_done event: %v", err)
			}
			movedSum += data.Moved
			rebalances++
		}
	}
	if joins != 4 || evictions != 1 {
		t.Errorf("journal recorded %d joins, %d evictions; want 4, 1", joins, evictions)
	}
	if rebalances == 0 {
		t.Error("journal recorded no rebalance_done events")
	}
	if registered != float64(joins-evictions) {
		t.Errorf("fchain_slaves_registered = %v, journal says %d", registered, joins-evictions)
	}
	if counter := reg.Counter("fchain_rebalance_components_total", "").Value(); counter != movedSum {
		t.Errorf("fchain_rebalance_components_total = %d, journal rebalance_done sum = %d", counter, movedSum)
	}
	if movedSum < int64(len(comps)) {
		t.Errorf("moved sum %d below initial placement size %d", movedSum, len(comps))
	}
}

// TestOverloadRetryAfterHint pins the Retry-After contract on shed Localize
// calls: the error is an OverloadedError (still errors.Is-compatible with
// ErrOverloaded) whose hint is derived from the queue depth and mirrored on
// the result.
func TestOverloadRetryAfterHint(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithAdmission(1),
		WithLocalizeTimeout(3*time.Second))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	// A registered slave that never answers analyze keeps the first call in
	// flight for its full deadline.
	fakeSlave(t, master.Addr(), "mute", []string{"a"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "fake slave registration")

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = master.Localize(context.Background(), 50)
	}()
	waitFor(t, 2*time.Second, func() bool {
		master.admit.mu.Lock()
		defer master.admit.mu.Unlock()
		return master.admit.inflight > 0
	}, "first localize to occupy admission")

	res, err := master.Localize(context.Background(), 60)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second localize error = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("second localize error %T does not unwrap to *OverloadedError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if got := time.Duration(res.RetryAfterMS) * time.Millisecond; got != oe.RetryAfter {
		t.Errorf("result RetryAfterMS %v != error RetryAfter %v", got, oe.RetryAfter)
	}
	if oe.RetryAfter > 3*time.Second {
		t.Errorf("RetryAfter %v exceeds the localize deadline", oe.RetryAfter)
	}
	<-done
}

// TestServiceRetryAfterOverTheWire verifies the Retry-After hint survives the
// violate wire protocol: a shed Violate reconstructs an OverloadedError with
// the master's hint on the client side.
func TestServiceRetryAfterOverTheWire(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithAdmission(1),
		WithLocalizeTimeout(3*time.Second))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	svc := NewService(master, ServiceConfig{})
	t.Cleanup(func() { svc.Drain(5 * time.Second) })
	fakeSlave(t, master.Addr(), "mute", []string{"a"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "fake slave registration")

	client, err := DialService(master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = client.Violate(context.Background(), "acme", "shop", 100)
	}()
	waitFor(t, 2*time.Second, func() bool {
		master.admit.mu.Lock()
		defer master.admit.mu.Unlock()
		return master.admit.inflight > 0
	}, "first violation to occupy admission")

	// A different app so the coalescer does not fold the calls together.
	_, err = client.Violate(context.Background(), "acme", "billing", 500)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second violate error = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("wire error %T does not unwrap to *OverloadedError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("wire RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	<-done
}
