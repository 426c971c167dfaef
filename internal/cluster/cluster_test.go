package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/cloudsim"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/metric"
)

// SetClock overrides the tenant registry's time source (quota refill); tests
// pin it.
func (s *Service) SetClock(clock func() time.Time) {
	if clock == nil {
		return
	}
	s.tenants.SetClock(clock)
}

// Monitored returns the components this slave currently monitors, sorted.
// In sharded mode the set follows the master's assignment pushes.
func (s *Slave) Monitored() []string {
	names, _ := s.owned()
	return slices.Clone(names)
}

// Connected reports whether the slave currently holds at least one live
// registered upstream connection.
func (s *Slave) Connected() bool { return s.livePeer() != nil }

// Ping verifies the master connection is alive: it sends a heartbeat and
// waits up to timeout for the response.
func (s *Slave) Ping(timeout time.Duration) error {
	peer := s.livePeer()
	if peer == nil {
		return fmt.Errorf("cluster: slave %s is not connected", s.name)
	}
	if _, err := peer.request(&envelope{Type: typePing}, timeout, nil); err != nil {
		return fmt.Errorf("cluster: ping to master: %w", err)
	}
	return nil
}

// startCluster boots a master plus one slave per component of the given
// simulation and feeds all recorded samples up to tv.
func startCluster(t *testing.T, sim *cloudsim.Sim, tv int64, deps *depgraph.Graph) (*Master, []*Slave) {
	t.Helper()
	master := NewMaster(core.Config{}, deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	var slaves []*Slave
	for _, comp := range sim.Components() {
		sl := NewSlave("host-"+comp, []string{comp}, core.Config{})
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
		slaves = append(slaves, sl)
	}
	// Wait for registrations to land.
	deadline := time.Now().Add(2 * time.Second)
	for len(master.Slaves()) < len(slaves) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(master.Slaves()); got != len(slaves) {
		t.Fatalf("only %d of %d slaves registered", got, len(slaves))
	}
	return master, slaves
}

// faultScenario runs RUBiS with a CPU hog at the database and returns the
// sim and violation time.
func faultScenario(t *testing.T, seed int64) (*cloudsim.Sim, int64, *depgraph.Graph) {
	t.Helper()
	sim, err := cloudsim.New(apps.RUBiS(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(cloudsim.NewCPUHog(1700, 1.7, apps.DB)); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2400)
	tv, found := sim.FirstViolation(1700, 8)
	if !found {
		t.Fatal("scenario produced no violation")
	}
	deps := depgraph.Discover(sim.DependencyTrace(600, seed), depgraph.DiscoverConfig{})
	return sim, tv, deps
}

func TestDistributedLocalization(t *testing.T) {
	sim, tv, deps := faultScenario(t, 1)
	master, _ := startCluster(t, sim, tv, deps)
	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Diagnosis.CulpritNames()
	if len(names) != 1 || names[0] != apps.DB {
		t.Errorf("distributed diagnosis = %v, want [db]", names)
	}
}

func TestLocalizeNoSlaves(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := master.Localize(context.Background(), 100); err != ErrNoSlaves {
		t.Errorf("Localize without slaves = %v, want ErrNoSlaves", err)
	}
}

func TestSlaveDropDuringLocalize(t *testing.T) {
	sim, tv, deps := faultScenario(t, 1)
	master, slaves := startCluster(t, sim, tv, deps)
	// Kill the slave monitoring app2; the master must still localize from
	// the remaining reports.
	for _, sl := range slaves {
		if sl.Name() == "host-"+apps.App2 {
			sl.Close()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(master.Slaves()) > 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	names := res.Diagnosis.CulpritNames()
	if len(names) != 1 || names[0] != apps.DB {
		t.Errorf("diagnosis after slave drop = %v, want [db]", names)
	}
}

func TestMalformedFrameDropsConnection(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The master must drop the connection without registering anything.
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected the master to close a malformed connection")
	}
	if got := master.Slaves(); len(got) != 0 {
		t.Errorf("malformed peer registered: %v", got)
	}
}

func TestSlaveRejectsUnknownComponent(t *testing.T) {
	sl := NewSlave("h", []string{"a"}, core.Config{})
	if err := sl.Observe("ghost", 0, metric.CPU, 1); err == nil {
		t.Error("observing unknown component should error")
	}
}

func TestSlaveAnswersUnknownRequestType(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	// Raw fake master: accept a slave and send it garbage-typed request.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sl := NewSlave("h", []string{"a"}, core.Config{})
	errCh := make(chan error, 1)
	go func() { errCh <- sl.Connect(ln.Addr().String()) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	r := newReader(conn)
	if _, err := readFrame(r); err != nil { // registration
		t.Fatal(err)
	}
	if err := writeFrame(conn, &envelope{Type: "bogus", ID: 7}, time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != typeError || resp.ID != 7 || !strings.Contains(resp.Err, "unknown") {
		t.Errorf("unexpected response: %+v", resp)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := envelope{Type: typeAnalyze, ID: 3, TV: 100, LookBack: 50}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back envelope
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Type != env.Type || back.ID != env.ID || back.TV != env.TV || back.LookBack != env.LookBack {
		t.Errorf("roundtrip mismatch: %+v vs %+v", back, env)
	}
}

func TestSlavePing(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	sl := NewSlave("h", []string{"a"}, core.Config{})
	if err := sl.Ping(time.Second); err == nil {
		t.Error("ping before connect should error")
	}
	if err := sl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	if err := sl.Ping(2 * time.Second); err != nil {
		t.Errorf("ping failed: %v", err)
	}
	// After the master goes away, pings must fail.
	master.Close()
	if err := sl.Ping(500 * time.Millisecond); err == nil {
		t.Error("ping after master shutdown should fail")
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var locals []*Slave
	for i := 0; i < 3; i++ {
		sl := NewSlave(fmt.Sprintf("h%d", i), []string{fmt.Sprintf("c%d", i)}, core.Config{})
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		locals = append(locals, sl)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(master.Slaves()) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, sl := range locals {
		if err := sl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
	// Goroutines must drain back to (roughly) the baseline.
	deadline = time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

func TestMasterHistory(t *testing.T) {
	sim, tv, deps := faultScenario(t, 1)
	master, _ := startCluster(t, sim, tv, deps)
	if len(master.History()) != 0 {
		t.Fatal("fresh master should have empty history")
	}
	if _, err := master.Localize(context.Background(), tv); err != nil {
		t.Fatal(err)
	}
	if _, err := master.Localize(context.Background(), tv); err != nil {
		t.Fatal(err)
	}
	hist := master.History()
	if len(hist) != 2 {
		t.Fatalf("history = %d entries, want 2", len(hist))
	}
	if hist[0].TV != tv || len(hist[0].Diagnosis.CulpritNames()) == 0 {
		t.Errorf("history entry malformed: %+v", hist[0])
	}
}
