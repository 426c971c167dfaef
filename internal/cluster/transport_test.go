package cluster

// A monitor's state reaches a new owner three ways — a checkpoint file read
// at assignment, a live donor shipping it over the replication channel during
// a rebalance, a standby's shadow promoted after the owner died. These tests
// hold all three to one standard: the recipient is indistinguishable from a
// monitor that was fed the same samples and never moved.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fchain/internal/core"
	"fchain/internal/metric"
)

// movedMonitor pairs a component that changed owner with its never-moved twin.
type movedMonitor struct {
	comp  string
	owner *Slave // where the component lives after the transport
	twin  *core.Monitor
}

const transportTV = 240

// runTransport places 24 components on a sharded cluster, feeds every one
// (and a local twin) the same seeded series through the sanitizing Ingest
// path, moves state by the named transport, and returns the components that
// ended up on a different slave.
func runTransport(t *testing.T, transport string, cfg core.Config) []movedMonitor {
	t.Helper()
	slaveOpts := []SlaveOption{WithReconnect(false)}
	masterOpts := []MasterOption{WithSharding(0), WithAutoRebalance(false)}
	nSlaves := 2
	switch transport {
	case "checkpoint":
		slaveOpts = append(slaveOpts, WithCheckpointDir(t.TempDir()))
	case "warm-promotion":
		slaveOpts = append(slaveOpts, WithReplication(20*time.Millisecond))
		masterOpts = append(masterOpts, WithStandby(true))
		nSlaves = 3
	}
	master := NewMaster(cfg, nil, masterOpts...)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	slaves := make(map[string]*Slave)
	addSlave := func(name string) {
		sl := NewSlave(name, nil, cfg, slaveOpts...)
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
		slaves[name] = sl
		waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == len(slaves) }, name+" to register")
	}
	for i := 0; i < nSlaves; i++ {
		addSlave(fmt.Sprintf("shard-%d", i))
	}
	var comps []string
	for i := 0; i < 24; i++ {
		comps = append(comps, fmt.Sprintf("t%02d", i))
	}
	master.RegisterComponents(comps...)
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	twins := make(map[string]*core.Monitor, len(comps))
	before := make(map[string]string, len(comps))
	for _, comp := range comps {
		twins[comp] = core.NewMonitor(comp, cfg)
		before[comp], _ = master.Owner(comp)
	}
	for ts := int64(1); ts <= transportTV; ts++ {
		for _, comp := range comps {
			for _, k := range metric.Kinds {
				v := 50 + 10*float64(k) + rng.NormFloat64()
				if err := slaves[before[comp]].Ingest(comp, ts, k, v); err != nil {
					t.Fatal(err)
				}
				if err := twins[comp].Ingest(ts, k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Release the reorder windows into the models on both sides, as any
	// Localize would: what still waits there has reached no model and is not
	// state any transport claims to carry.
	for _, sl := range slaves {
		sl.Analyze(transportTV)
	}
	for _, twin := range twins {
		twin.FlushIngest(transportTV)
	}

	switch transport {
	case "checkpoint", "warm-promotion":
		if transport == "warm-promotion" {
			waitReplicated(t, master, slaves, comps)
		}
		victim := before[comps[0]]
		if err := slaves[victim].Close(); err != nil { // with a checkpoint dir, Close writes the files
			t.Fatal(err)
		}
		delete(slaves, victim)
		waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == len(slaves) }, "victim eviction")
	case "live-move":
		addSlave("shard-join")
	}
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	var moved []movedMonitor
	for _, comp := range comps {
		if after, _ := master.Owner(comp); after != before[comp] {
			moved = append(moved, movedMonitor{comp: comp, owner: slaves[after], twin: twins[comp]})
		}
	}
	if len(moved) == 0 {
		t.Fatalf("%s moved no component", transport)
	}
	return moved
}

func eachTransport(t *testing.T, fn func(t *testing.T, transport string, cfg core.Config)) {
	for _, streaming := range []bool{false, true} {
		for _, transport := range []string{"checkpoint", "live-move", "warm-promotion"} {
			t.Run(fmt.Sprintf("%s/streaming=%v", transport, streaming), func(t *testing.T) {
				fn(t, transport, core.Config{Streaming: streaming})
			})
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fullFrame encodes m's full replication frame: two monitors with equal
// bytes here hold byte-identical models, histories, sanitizer and streaming
// state.
func fullFrame(t testing.TB, m *core.Monitor) []byte {
	t.Helper()
	var d core.ReplDelta
	m.FrameInto(&d, new(core.Floors))
	raw, err := d.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func ownedMonitor(t *testing.T, sl *Slave, comp string) *core.Monitor {
	t.Helper()
	sl.mu.Lock()
	mon := sl.monitors.Load().byName[comp]
	sl.mu.Unlock()
	if mon == nil {
		t.Fatalf("slave %s does not monitor %s after the move", sl.Name(), comp)
	}
	return mon
}

// TestTransportEquivalence: whichever way the state travelled, the recipient's
// full frame and its analysis of the window are byte-identical to the twin's.
func TestTransportEquivalence(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string, cfg core.Config) {
		for _, mv := range runTransport(t, transport, cfg) {
			if !bytes.Equal(fullFrame(t, ownedMonitor(t, mv.owner, mv.comp)), fullFrame(t, mv.twin)) {
				t.Errorf("%s: state differs from the never-moved twin", mv.comp)
			}
			wantRep, _ := core.AnalyzeMonitors([]*core.Monitor{mv.twin}, transportTV, 0, 1)
			var gotRep []core.ComponentReport
			for _, rep := range mv.owner.Analyze(transportTV) {
				if rep.Component == mv.comp {
					gotRep = append(gotRep, rep)
				}
			}
			if a, b := mustJSON(t, gotRep), mustJSON(t, wantRep); !bytes.Equal(a, b) {
				t.Errorf("%s: analysis differs from the never-moved twin:\n moved: %s\n twin:  %s", mv.comp, a, b)
			}
		}
	})
}

// TestSanitizerStateSurvivesEveryTransport: with the default magnitude clamp
// on, a far outlier ingested after the move is clamped by the new owner
// exactly as the twin clamps it — same ring contents, same quality counters.
// The clamp's running statistics and the gap-repair anchor travelled too.
func TestSanitizerStateSurvivesEveryTransport(t *testing.T) {
	eachTransport(t, func(t *testing.T, transport string, cfg core.Config) {
		const at = transportTV + 1
		for _, mv := range runTransport(t, transport, cfg) {
			if err := mv.owner.Ingest(mv.comp, at, metric.CPU, 1e12); err != nil {
				t.Fatal(err)
			}
			if err := mv.twin.Ingest(at, metric.CPU, 1e12); err != nil {
				t.Fatal(err)
			}
			mv.twin.FlushIngest(at)
			mon := ownedMonitor(t, mv.owner, mv.comp)
			mon.FlushIngest(at)
			if q := mv.twin.Quality(); q.Clamped != 1 {
				t.Fatalf("%s: twin clamped %d samples, want exactly the outlier", mv.comp, q.Clamped)
			}
			if got, want := mon.Quality(), mv.twin.Quality(); got != want {
				t.Errorf("%s: quality after the outlier = %+v, twin has %+v", mv.comp, got, want)
			}
			if !bytes.Equal(fullFrame(t, mon), fullFrame(t, mv.twin)) {
				t.Errorf("%s: rings differ from the never-moved twin after a clamped outlier", mv.comp)
			}
		}
	})
}

// TestOldOwnerFrameAcrossRebalance: a replication frame from a component's
// previous owner that is still queued for relay when a rebalance cuts the
// component over must not enter the books. Sequence numbers restart with the
// new owner, so counting the old owner's (higher) one would leave
// StandbyCaughtUp false until fresh samples pushed the new sequence past it —
// and here no sample ever arrives again.
func TestOldOwnerFrameAcrossRebalance(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithSharding(0), WithAutoRebalance(false), WithStandby(true))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	slaveOpts := []SlaveOption{WithReplication(20 * time.Millisecond), WithReconnect(false)}
	slaves := startShardedSlaves(t, master, 3, slaveOpts...)
	var comps []string
	for i := 0; i < 24; i++ {
		comps = append(comps, fmt.Sprintf("o%02d", i))
	}
	master.RegisterComponents(comps...)
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	before := make(map[string]string, len(comps))
	for _, comp := range comps {
		before[comp], _ = master.Owner(comp)
		for ts := int64(1); ts <= 40; ts++ {
			if err := slaves[before[comp]].Observe(comp, ts, metric.CPU, float64(ts%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitReplicated(t, master, slaves, comps)

	joiner := NewSlave("shard-join", nil, core.Config{}, slaveOpts...)
	if err := joiner.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 4 }, "joiner to register")
	if _, err := master.Rebalance(); err != nil {
		t.Fatal(err)
	}
	var moved string
	for _, comp := range comps {
		if after, _ := master.Owner(comp); after != before[comp] {
			moved = comp
			break
		}
	}
	if moved == "" {
		t.Fatal("join rebalance moved nothing")
	}

	// The previous owner's frame, dequeued only now.
	var full core.ReplDelta
	core.NewMonitor(moved, core.Config{}).FrameInto(&full, new(core.Floors))
	state, err := full.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	master.mu.Lock()
	old := master.slaves[before[moved]]
	master.mu.Unlock()
	old.replQ <- &envelope{Type: typeReplicate, ID: 1 << 40, Slave: old.name, Component: moved, Seq: 1 << 20, State: state}

	waitFor(t, 5*time.Second, func() bool { return master.StandbyCaughtUp(moved) },
		"the moved component's standby to catch up with no further ingest")
	slaves["shard-join"] = joiner
	waitReplicated(t, master, slaves, comps)
}
