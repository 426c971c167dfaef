package cluster

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/core"
	"fchain/internal/faultnet"
	"fchain/internal/metric"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fakeSlave registers name/components over a raw connection and hands the
// connection to the caller for scripted (mis)behavior.
func fakeSlave(t *testing.T, addr, name string, components []string) (net.Conn, *connWriter) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := newConnWriter(conn)
	reg := &envelope{Type: typeRegister, Slave: name, Components: components}
	if err := w.write(reg, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return conn, w
}

// stateRecorder captures the slave's connection-state transitions.
type stateRecorder struct {
	mu     sync.Mutex
	states []ConnState
}

func (r *stateRecorder) record(s ConnState, err error) {
	r.mu.Lock()
	r.states = append(r.states, s)
	r.mu.Unlock()
}

func (r *stateRecorder) has(want ConnState) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.states {
		if s == want {
			return true
		}
	}
	return false
}

// TestSlaveReconnectsAfterDrop severs the master link of one slave mid-run
// and verifies the slave re-dials with backoff, re-registers, and a
// subsequent Localize succeeds with full coverage.
func TestSlaveReconnectsAfterDrop(t *testing.T) {
	sim, tv, deps := faultScenario(t, 1)
	master := NewMaster(core.Config{}, deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	// The db slave connects through a severable proxy; the rest directly.
	proxy, err := faultnet.NewProxy(master.Addr(), faultnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	rec := &stateRecorder{}
	total := len(sim.Components())
	for _, comp := range sim.Components() {
		opts := []SlaveOption{WithBackoff(20*time.Millisecond, 200*time.Millisecond)}
		addr := master.Addr()
		if comp == apps.DB {
			opts = append(opts, slaveOptionFunc(func(s *Slave) { s.onState = rec.record })) // observe the severed link
			addr = proxy.Addr()
		}
		sl := NewSlave("host-"+comp, []string{comp}, core.Config{}, opts...)
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
		if err := sl.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == total }, "registrations")

	// Partition: kill the db slave's link mid-run.
	dbConn := func() *slaveConn {
		master.mu.Lock()
		defer master.mu.Unlock()
		return master.slaves["host-"+apps.DB]
	}
	severed := dbConn()
	proxy.Sever()
	waitFor(t, 2*time.Second, func() bool { return rec.has(StateDisconnected) }, "disconnect detection")
	// Re-registered means the master serves a new connection for the slave,
	// not that its name is listed: until the master notices the severed link
	// the old registration still counts.
	waitFor(t, 5*time.Second, func() bool {
		now := dbConn()
		return rec.has(StateReconnecting) && now != nil && now != severed && len(master.Slaves()) == total
	}, "reconnect + re-registration")

	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("post-reconnect localize degraded: %+v errors=%v", res, res.Errors)
	}
	if res.SlavesAnswered != total || res.ComponentsReported != total {
		t.Errorf("coverage %d/%d slaves %d/%d components, want full",
			res.SlavesAnswered, res.SlavesTotal, res.ComponentsReported, res.ComponentsKnown)
	}
	if names := res.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Errorf("diagnosis after reconnect = %v, want [db]", names)
	}
}

// TestPermanentSlaveLossDegradesCoverage drops one slave for good and checks
// the LocalizeResult reports partial coverage with Degraded=true while still
// producing the right diagnosis.
func TestPermanentSlaveLossDegradesCoverage(t *testing.T) {
	sim, tv, deps := faultScenario(t, 1)
	master := NewMaster(core.Config{}, deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	total := len(sim.Components())
	var lost *Slave
	for _, comp := range sim.Components() {
		sl := NewSlave("host-"+comp, []string{comp}, core.Config{}, WithReconnect(false))
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
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
		if comp == apps.App2 {
			lost = sl
		}
	}
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == total }, "registrations")

	lost.Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == total-1 }, "eviction")

	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("localize with a lost slave must report Degraded")
	}
	if res.SlavesTotal != total-1 || res.SlavesAnswered != total-1 {
		t.Errorf("slaves %d/%d, want %d/%d", res.SlavesAnswered, res.SlavesTotal, total-1, total-1)
	}
	// The lost component still counts in the application size.
	if res.ComponentsKnown != total || res.ComponentsReported != total-1 {
		t.Errorf("components %d/%d, want %d/%d", res.ComponentsReported, res.ComponentsKnown, total-1, total)
	}
	if cov := res.Coverage(); cov >= 1 {
		t.Errorf("coverage = %v, want < 1", cov)
	}
	if names := res.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Errorf("degraded diagnosis = %v, want [db]", names)
	}
	if h := master.Health(); h["host-"+apps.App2].State != Dead {
		t.Errorf("lost slave health = %+v, want dead", h["host-"+apps.App2])
	}
}

// TestHeartbeatEvictsDeadSlave registers a peer that never answers pings and
// checks the heartbeat loop evicts it.
func TestHeartbeatEvictsDeadSlave(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithHeartbeat(25*time.Millisecond))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	fakeSlave(t, master.Addr(), "zombie", []string{"z"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")
	// The zombie never reads nor pongs: misses accumulate and it is evicted.
	waitFor(t, 3*time.Second, func() bool { return len(master.Slaves()) == 0 }, "heartbeat eviction")
	if h := master.Health(); h["zombie"].State != Dead {
		t.Errorf("zombie health = %+v, want dead", h["zombie"])
	}
}

// TestHeartbeatKeepsLiveSlave verifies a real slave answers master pings and
// stays registered and healthy.
func TestHeartbeatKeepsLiveSlave(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithHeartbeat(20*time.Millisecond))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	sl := NewSlave("h", []string{"a"}, core.Config{})
	if err := sl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")
	time.Sleep(200 * time.Millisecond) // many heartbeat rounds
	if got := master.Slaves(); len(got) != 1 {
		t.Fatalf("live slave evicted: %v", got)
	}
	if h := master.Health(); h["h"].State != Healthy {
		t.Errorf("live slave health = %+v, want healthy", h["h"])
	}
}

// TestLocalizeAsksEachSlaveOnce: a slave that needs most of the deadline to
// answer receives exactly one analyze frame, budgeted with the whole
// deadline, and its late answer counts.
func TestLocalizeAsksEachSlaveOnce(t *testing.T) {
	const deadline = time.Second
	master := NewMaster(core.Config{}, nil, WithLocalizeTimeout(deadline))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, w := fakeSlave(t, master.Addr(), "slow", []string{"s"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")

	var budgets []int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		r := newReader(conn)
		for {
			env, err := readFrame(r)
			if err != nil {
				return
			}
			if env.Type != typeAnalyze {
				continue
			}
			budgets = append(budgets, env.BudgetMS)
			go func(id uint64) {
				time.Sleep(deadline * 6 / 10)
				_ = w.write(&envelope{Type: typeReports, ID: id,
					Reports: []core.ComponentReport{{Component: "s"}}}, 2*time.Second)
			}(env.ID)
		}
	}()

	res, err := master.Localize(context.Background(), 100)
	if err != nil {
		t.Fatalf("localize against a slave answering at 0.6x the deadline: %v", err)
	}
	if res.SlavesAnswered != 1 || res.Degraded {
		t.Errorf("result = %+v, want full coverage", res)
	}
	// Closing the master ends the connection, so the reader has seen every
	// frame the master ever sent once it drains.
	master.Close()
	<-drained
	if len(budgets) != 1 {
		t.Fatalf("slave received %d analyze frames, want exactly 1", len(budgets))
	}
	if floor := (deadline * 9 / 10).Milliseconds(); budgets[0] < floor {
		t.Errorf("analyze BudgetMS = %d, want >= %d (the whole deadline)", budgets[0], floor)
	}
}

// TestLocalizeFailureReportsPartialCoverage: a slave that never answers
// uses up the deadline and the result carries the miss.
func TestLocalizeFailureReportsPartialCoverage(t *testing.T) {
	master := NewMaster(core.Config{}, nil,
		WithLocalizeTimeout(time.Second),
		func(m *Master) { m.brThreshold = 0 }) // every call must ask the mute slave
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	fakeSlave(t, master.Addr(), "mute", []string{"m"})
	conn, w := fakeSlave(t, master.Addr(), "good", []string{"g"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "registrations")
	go answerAnalyzes(conn, w, "g")

	res, err := master.Localize(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.SlavesAnswered != 1 || res.SlavesTotal != 2 {
		t.Errorf("result = %+v, want degraded 1/2", res)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "mute") {
		t.Errorf("errors = %v, want one mentioning mute", res.Errors)
	}
}

// answerAnalyzes serves every analyze request with a single-component report.
func answerAnalyzes(conn net.Conn, w *connWriter, component string) {
	r := newReader(conn)
	for {
		env, err := readFrame(r)
		if err != nil {
			return
		}
		switch env.Type {
		case typeAnalyze:
			resp := &envelope{Type: typeReports, ID: env.ID,
				Reports: []core.ComponentReport{{Component: component}}}
			if err := w.write(resp, 2*time.Second); err != nil {
				return
			}
		case typePing:
			if err := w.write(&envelope{Type: typePong, ID: env.ID}, 2*time.Second); err != nil {
				return
			}
		}
	}
}

// TestBreakerSkipsRepeatedlyFailingSlave: after threshold consecutive
// failures the breaker opens and subsequent Localize calls skip the slave
// without burning their deadline on it.
func TestBreakerSkipsRepeatedlyFailingSlave(t *testing.T) {
	master := NewMaster(core.Config{}, nil,
		WithLocalizeTimeout(300*time.Millisecond),
		func(m *Master) { m.brThreshold, m.brCooldown = 1, time.Minute }) // open on the first failure, stay open
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	fakeSlave(t, master.Addr(), "mute", []string{"m"})
	conn, w := fakeSlave(t, master.Addr(), "good", []string{"g"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "registrations")
	go answerAnalyzes(conn, w, "g")

	// First call: mute times out, tripping its breaker.
	if _, err := master.Localize(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	// Second call: the open breaker skips mute outright.
	start := time.Now()
	res, err := master.Localize(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("breaker did not short-circuit: localize took %v", elapsed)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "circuit open") {
		t.Errorf("errors = %v, want circuit-open skip", res.Errors)
	}
	if h := master.Health(); h["mute"].State != Degraded || !h["mute"].BreakerOpen {
		t.Errorf("mute health = %+v, want degraded with open breaker", h["mute"])
	}
}

// TestBreakerChargedWhenGatherGivesUp pins the breaker ordering: a slave the
// collection gives up on (quorum met, straggler grace lapsed) is charged a
// failure before Localize returns, not whenever its abandoned ask wakes up at
// its own timeout. The second call therefore starts while the first call's
// ask to the mute slave is still pending, and must already find the circuit
// open.
func TestBreakerChargedWhenGatherGivesUp(t *testing.T) {
	master := NewMaster(core.Config{}, nil,
		WithLocalizeTimeout(time.Second),
		WithQuorum(0.5),
		func(m *Master) { m.brThreshold, m.brCooldown = 1, time.Minute }) // open on the first failure, stay open
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	fakeSlave(t, master.Addr(), "mute", []string{"m"})
	conn, w := fakeSlave(t, master.Addr(), "good", []string{"g"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "registrations")
	go answerAnalyzes(conn, w, "g")

	start := time.Now()
	if _, err := master.Localize(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	res, err := master.Localize(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 800*time.Millisecond {
		t.Fatalf("two quorum localizations took %v: the first ask has timed out on its own, the test proves nothing", elapsed)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "circuit open") {
		t.Errorf("errors = %v, want the circuit already open for the slave given up on", res.Errors)
	}
	// Once the abandoned ask does time out it must not be charged again.
	time.Sleep(time.Until(start.Add(1200 * time.Millisecond)))
	if h := master.Health()["mute"]; !h.BreakerOpen || h.Failures != 1 {
		t.Errorf("mute health = %+v, want an open breaker charged exactly once", h)
	}
}

// TestPendingFailFastOnDisconnect: a slave that dies mid-request must fail
// the in-flight Localize immediately, not after the full timeout.
func TestPendingFailFastOnDisconnect(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithLocalizeTimeout(30*time.Second))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, _ := fakeSlave(t, master.Addr(), "dying", []string{"d"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")
	go func() {
		r := newReader(conn)
		if _, err := readFrame(r); err == nil { // first analyze request
			conn.Close() // die with the request in flight
		}
	}()
	start := time.Now()
	_, err := master.Localize(context.Background(), 100)
	if err == nil {
		t.Fatal("localize against a dying slave should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("disconnect burned %v before failing, want fail-fast", elapsed)
	}
}

// TestDuplicateRegistrationEvictsOld: re-registering a name closes the stale
// connection instead of leaking it, and the new connection serves.
func TestDuplicateRegistrationEvictsOld(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	oldConn, _ := fakeSlave(t, master.Addr(), "dup", []string{"c"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "first registration")
	newConn, newW := fakeSlave(t, master.Addr(), "dup", []string{"c"})

	// The stale connection must be closed by the master.
	oldConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := oldConn.Read(buf); err == nil {
		t.Error("stale duplicate connection still open")
	}
	if got := master.Slaves(); len(got) != 1 || got[0] != "dup" {
		t.Fatalf("slaves after duplicate registration = %v", got)
	}
	// The replacement connection is the live one: ping it.
	if err := newW.write(&envelope{Type: typePing, ID: 9}, time.Second); err != nil {
		t.Fatal(err)
	}
	r := newReader(newConn)
	newConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != typePong || resp.ID != 9 {
		t.Errorf("replacement conn got %+v, want pong 9", resp)
	}
}

// TestConcurrentWritesSurvivePartialWrites is the regression test for the
// interleaved-frame write bug: with every write split into tiny chunks (so
// unserialized concurrent writers WOULD interleave frames mid-JSON), a ping
// flood racing analyze fan-out must not corrupt either direction of the
// stream. Run with -race to also catch memory-level races on the shared
// connection state.
func TestConcurrentWritesSurvivePartialWrites(t *testing.T) {
	chunky := faultnet.Config{PartialProb: 1, ChunkSize: 5}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := NewMaster(core.Config{}, nil)
	master.Serve(faultnet.WrapListener(ln, chunky))
	defer master.Close()

	sl := NewSlave("h", []string{"a"}, core.Config{}, WithDialer(faultnet.Dialer(chunky)))
	for ts := int64(0); ts < 200; ts++ {
		for _, k := range metric.Kinds {
			if err := sl.Observe("a", ts, k, float64(ts%17)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")

	// Ping flood (slave->master ping frames + master->slave pong frames)
	// racing analyze fan-out (master->slave analyze + slave->master report
	// frames) over the same two connections.
	done := make(chan struct{})
	var pingErrs int
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := sl.Ping(2 * time.Second); err != nil {
				pingErrs++
			}
		}
	}()
	for i := 0; i < 10; i++ {
		res, err := master.Localize(context.Background(), 150)
		if err != nil {
			t.Fatalf("localize %d under write contention: %v", i, err)
		}
		if res.Degraded {
			t.Fatalf("localize %d degraded under write contention: %v", i, res.Errors)
		}
	}
	<-done
	if pingErrs > 0 {
		t.Errorf("%d pings failed under write contention", pingErrs)
	}
	if got := master.Slaves(); len(got) != 1 {
		t.Errorf("connection corrupted: slaves = %v", got)
	}
}

// TestLocalizeHonorsContextCancel: canceling the context aborts the fan-out
// promptly.
func TestLocalizeHonorsContextCancel(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithLocalizeTimeout(time.Minute))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	fakeSlave(t, master.Addr(), "mute", []string{"m"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := master.Localize(ctx, 100); err == nil {
		t.Fatal("localize should fail when canceled")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel took %v to propagate", elapsed)
	}
}

// TestSlaveObservesAcrossOutage: samples fed while the link is down are
// available to analyze after reconnecting.
func TestSlaveObservesAcrossOutage(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	proxy, err := faultnet.NewProxy(master.Addr(), faultnet.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rec := &stateRecorder{}
	sl := NewSlave("h", []string{"a"}, core.Config{},
		WithBackoff(15*time.Millisecond, 120*time.Millisecond),
		slaveOptionFunc(func(s *Slave) { s.onState = rec.record })) // observe every reconnect
	if err := sl.Connect(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")

	var ts int64
	feed := func(n int64) {
		for i := int64(0); i < n; i++ {
			for _, k := range metric.Kinds {
				if err := sl.Observe("a", ts, k, float64(ts%13)); err != nil {
					t.Fatal(err)
				}
			}
			ts++
		}
	}
	feed(100)
	proxy.Sever()
	waitFor(t, 2*time.Second, func() bool { return rec.has(StateDisconnected) }, "disconnect")
	feed(100) // collection continues locally through the outage
	waitFor(t, 5*time.Second, func() bool {
		return sl.Connected() && len(master.Slaves()) == 1
	}, "reconnect")

	res, err := master.Localize(context.Background(), ts-1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.ComponentsReported != 1 {
		t.Errorf("post-outage result = %+v, want full single-component coverage", res)
	}
}
