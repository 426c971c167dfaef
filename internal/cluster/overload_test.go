package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/core"
	"fchain/internal/faultnet"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// setSlaveAnalyzeHook installs (or, with nil, removes) the handler-level
// fault-injection hook for the duration of a test.
func setSlaveAnalyzeHook(fn func(slave string, tv int64)) {
	if fn == nil {
		slaveAnalyzeHook.Store(nil)
		return
	}
	slaveAnalyzeHook.Store(&fn)
}

// overloadCluster boots the RUBiS fault scenario with real slaves for every
// component except the excluded ones, which the caller scripts separately.
func overloadCluster(t *testing.T, master *Master, exclude map[string]bool) (tv int64) {
	t.Helper()
	sim, tv, deps := faultScenario(t, 1)
	master.deps = deps
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	for _, comp := range sim.Components() {
		if exclude[comp] {
			continue
		}
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
	}
	return tv
}

// TestQuorumDegradedWithinDeadline is the ISSUE's acceptance scenario: one
// slave of four is registered but never answers; with a 0.75 quorum a 2 s
// Localize must return well within its deadline, flag the partial view, name
// the missing component, and still produce the right culprit.
func TestQuorumDegradedWithinDeadline(t *testing.T) {
	master := NewMaster(core.Config{}, nil, WithQuorum(0.75))
	tv := overloadCluster(t, master, map[string]bool{apps.App2: true})
	// app2's slave registers and then goes mute: it stalls, it does not die.
	fakeSlave(t, master.Addr(), "host-"+apps.App2, []string{apps.App2})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 4 }, "registrations")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	res, err := master.Localize(ctx, tv)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("quorum localize failed: %v", err)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("localize took %v, want within the 2s deadline", elapsed)
	}
	if !res.Degraded {
		t.Error("stalled slave must degrade the result")
	}
	if res.SlavesAnswered != 3 || res.SlavesTotal != 4 {
		t.Errorf("slaves %d/%d, want 3/4", res.SlavesAnswered, res.SlavesTotal)
	}
	if cov := res.Coverage(); cov != 0.75 {
		t.Errorf("coverage = %v, want 0.75", cov)
	}
	if len(res.MissingComponents) != 1 || res.MissingComponents[0] != apps.App2 {
		t.Errorf("missing components = %v, want [app2]", res.MissingComponents)
	}
	if names := res.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Errorf("quorum-degraded diagnosis = %v, want [db]", names)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0], apps.App2) {
		t.Errorf("errors = %v, want one naming the stalled slave", res.Errors)
	}
}

// TestQuorumSlowSlaveFaultnet is the chaos variant: the stalled slave is not
// mute but behind a faultnet link slow enough that its answer cannot land
// inside the 2 s budget. Quorum must release the call on the fast slaves.
func TestQuorumSlowSlaveFaultnet(t *testing.T) {
	sim, tv, deps := faultScenario(t, 1)
	master := NewMaster(core.Config{}, deps, WithQuorum(0.75))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	// app2 connects through a 1.5 s-latency proxy: a round trip costs >= 3 s,
	// so its analyze answer can never beat the 2 s deadline.
	proxy, err := faultnet.NewProxy(master.Addr(), faultnet.Config{Seed: 7, Latency: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	for _, comp := range sim.Components() {
		addr := master.Addr()
		if comp == apps.App2 {
			addr = proxy.Addr()
		}
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
		if err := sl.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
	}
	// The slow link also delays registration; give it room.
	waitFor(t, 8*time.Second, func() bool { return len(master.Slaves()) == 4 }, "registrations")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	res, err := master.Localize(ctx, tv)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("localize with a slow slave failed: %v", err)
	}
	if elapsed >= 2*time.Second {
		t.Errorf("localize took %v, want within the 2s deadline", elapsed)
	}
	if !res.Degraded || res.SlavesAnswered != 3 {
		t.Errorf("result = %+v, want degraded 3/4", res)
	}
	if len(res.MissingComponents) != 1 || res.MissingComponents[0] != apps.App2 {
		t.Errorf("missing components = %v, want [app2]", res.MissingComponents)
	}
	if names := res.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Errorf("diagnosis = %v, want [db]", names)
	}
}

// TestAskSpanTimesTheAsk: an answered ask:<slave> span covers the interval
// the master measured for that ask, from its fan-out to the answer, so a
// slave that takes 60 ms to answer shows a span at least that long, inside
// the localize root span.
func TestAskSpanTimesTheAsk(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	tv := overloadCluster(t, master, nil)
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 4 }, "registrations")
	const slow, delay = "host-" + apps.DB, 60 * time.Millisecond
	setSlaveAnalyzeHook(func(slave string, _ int64) {
		if slave == slow {
			time.Sleep(delay)
		}
	})
	defer setSlaveAnalyzeHook(nil)

	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	root, ask := res.Trace.Find("localize"), res.Trace.Find("ask:"+slow)
	if root == nil || ask == nil {
		t.Fatalf("trace lacks the localize or ask:%s span: %s", slow, res.Trace)
	}
	if ask.DurNS < delay.Nanoseconds() {
		t.Errorf("ask:%s lasted %v, want >= %v (the slave's own delay)", slow, time.Duration(ask.DurNS), delay)
	}
	if ask.StartNS < root.StartNS || ask.StartNS+ask.DurNS > root.StartNS+root.DurNS {
		t.Errorf("ask:%s [%d, +%d] lies outside localize [%d, +%d]",
			slow, ask.StartNS, ask.DurNS, root.StartNS, root.DurNS)
	}
}

// TestQuorumNotMetRefuses: below quorum the master refuses to diagnose
// instead of shipping a verdict from too thin a view.
func TestQuorumNotMetRefuses(t *testing.T) {
	master := NewMaster(core.Config{}, nil,
		WithQuorum(1.0), WithLocalizeTimeout(700*time.Millisecond))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	fakeSlave(t, master.Addr(), "mute", []string{"m"})
	conn, w := fakeSlave(t, master.Addr(), "good", []string{"g"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 2 }, "registrations")
	go answerAnalyzes(conn, w, "g")

	res, err := master.Localize(context.Background(), 100)
	if !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("localize below quorum = %v, want ErrQuorumNotMet", err)
	}
	// The refusal still carries the coverage picture for the caller.
	if res.SlavesAnswered != 1 || res.SlavesTotal != 2 || !res.Degraded {
		t.Errorf("refusal coverage = %+v, want degraded 1/2", res)
	}
}

// TestMasterAdmissionSheds: with one Localize slot and no queue, concurrent
// calls are fast-rejected with ErrOverloaded and a flagged result.
func TestMasterAdmissionSheds(t *testing.T) {
	master := NewMaster(core.Config{}, nil,
		WithAdmission(1))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, w := fakeSlave(t, master.Addr(), "slow", []string{"s"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")
	// The scripted slave answers each analyze after 300 ms, keeping the
	// admitted Localize inside the gate while the others arrive.
	go func() {
		r := newReader(conn)
		for {
			env, err := readFrame(r)
			if err != nil {
				return
			}
			if env.Type != typeAnalyze {
				continue
			}
			go func(id uint64) {
				time.Sleep(300 * time.Millisecond)
				_ = w.write(&envelope{Type: typeReports, ID: id,
					Reports: []core.ComponentReport{{Component: "s"}}}, 2*time.Second)
			}(env.ID)
		}
	}()

	const calls = 3
	type outcome struct {
		res core.LocalizeResult
		err error
	}
	results := make(chan outcome, calls)
	for i := 0; i < calls; i++ {
		go func() {
			res, err := master.Localize(context.Background(), 100)
			results <- outcome{res, err}
		}()
	}
	var ok, shed int
	for i := 0; i < calls; i++ {
		o := <-results
		switch {
		case o.err == nil:
			ok++
		case errors.Is(o.err, ErrOverloaded):
			shed++
			if !o.res.Overloaded {
				t.Error("shed result must set Overloaded")
			}
		default:
			t.Errorf("unexpected Localize error: %v", o.err)
		}
	}
	if ok == 0 || shed == 0 {
		t.Errorf("outcomes ok=%d shed=%d, want at least one of each", ok, shed)
	}
}

// TestSlaveAdmissionSheds: the slave-side gate sheds overlapping analyze
// requests with a structured overloaded error frame the master counts.
func TestSlaveAdmissionSheds(t *testing.T) {
	sink := &obs.Sink{Log: obs.NewLogger(io.Discard, obs.LevelError), Metrics: obs.NewRegistry()}
	master := NewMaster(core.Config{}, nil, WithMasterObs(sink))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	sl := NewSlave("h", []string{"a"}, core.Config{}, WithSlaveAdmission(1))
	for ts := int64(0); ts < 300; ts++ {
		for _, k := range metric.Kinds {
			if err := sl.Observe("a", ts, k, float64(40+ts%13)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")

	// The hook runs after admission, so the sleeping holder keeps the gate
	// closed while the concurrent requests arrive and are shed.
	setSlaveAnalyzeHook(func(slave string, tv int64) { time.Sleep(300 * time.Millisecond) })
	defer setSlaveAnalyzeHook(nil)

	const calls = 4
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := master.Localize(context.Background(), 299)
			errs <- err
		}()
	}
	var ok, shed int
	for i := 0; i < calls; i++ {
		err := <-errs
		switch {
		case err == nil:
			ok++
		case strings.Contains(err.Error(), "overloaded"):
			shed++
		default:
			t.Errorf("unexpected Localize error: %v", err)
		}
	}
	if ok == 0 || shed == 0 {
		t.Errorf("outcomes ok=%d shed=%d, want at least one of each", ok, shed)
	}
	if n := sink.Registry().Counter("fchain_slave_overloaded_total", "").Value(); n != int64(shed) {
		t.Errorf("fchain_slave_overloaded_total = %d, want %d", n, shed)
	}
}

// TestSlaveAnalyzePanicRecovery: a panic inside the analyze handler is
// recovered into a structured error frame; the daemon and its connection
// survive, and the next request (fault cleared) succeeds.
func TestSlaveAnalyzePanicRecovery(t *testing.T) {
	sink := &obs.Sink{Log: obs.NewLogger(io.Discard, obs.LevelError), Metrics: obs.NewRegistry()}
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	sl := NewSlave("h", []string{"a"}, core.Config{}, WithSlaveObs(sink))
	for ts := int64(0); ts < 300; ts++ {
		for _, k := range metric.Kinds {
			if err := sl.Observe("a", ts, k, float64(40+ts%13)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")

	setSlaveAnalyzeHook(func(slave string, tv int64) { panic("injected handler fault") })
	_, err := master.Localize(context.Background(), 299)
	setSlaveAnalyzeHook(nil)
	if err == nil || !strings.Contains(err.Error(), "analyze panicked") {
		t.Fatalf("localize against a panicking handler = %v, want structured panic error", err)
	}
	if n := sink.Registry().Counter("fchain_analyze_panics_total", "").Value(); n != 1 {
		t.Errorf("fchain_analyze_panics_total = %d, want 1", n)
	}
	// The daemon survived: still connected, still registered, and once the
	// fault clears it serves normally.
	if !sl.Connected() {
		t.Fatal("slave connection died with the handler panic")
	}
	if got := master.Slaves(); len(got) != 1 {
		t.Fatalf("slave deregistered after handler panic: %v", got)
	}
	res, err := master.Localize(context.Background(), 299)
	if err != nil {
		t.Fatalf("localize after fault cleared: %v", err)
	}
	if res.Degraded {
		t.Errorf("post-recovery result degraded: %+v", res)
	}
}

// TestClusterPanicQuarantineReAdmission drives the kernel-level quarantine
// end to end over the wire: a panicking selection kernel quarantines only its
// own stream (flagged in the LocalizeResult), the daemon stays up, and after
// the cooldown the stream is re-admitted.
func TestClusterPanicQuarantineReAdmission(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	sl := NewSlave("h", []string{"a", "b"}, core.Config{QuarantineCooldown: 100 * time.Millisecond})
	for ts := int64(0); ts < 300; ts++ {
		for _, comp := range []string{"a", "b"} {
			for _, k := range metric.Kinds {
				if err := sl.Observe(comp, ts, k, float64(40+ts%13)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")

	core.SetAnalyzeHook(func(component string, k metric.Kind) {
		if component == "a" && k == metric.CPU {
			panic("poisoned stream")
		}
	})
	defer core.SetAnalyzeHook(nil)
	res, err := master.Localize(context.Background(), 299)
	if err != nil {
		t.Fatalf("localize with a poisoned stream: %v", err)
	}
	if got := res.Quarantined["a"]; len(got) != 1 || got[0] != metric.CPU.String() {
		t.Errorf("quarantined streams = %v, want a:[cpu]", res.Quarantined)
	}
	if len(res.Quarantined["b"]) != 0 {
		t.Errorf("panic leaked past its stream: %v", res.Quarantined)
	}
	if res.Degraded {
		t.Error("one quarantined stream must not degrade component coverage")
	}

	// Clear the fault and wait out the cooldown: the probe re-admits.
	core.SetAnalyzeHook(nil)
	time.Sleep(120 * time.Millisecond)
	res, err = master.Localize(context.Background(), 299)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Errorf("stream not re-admitted after cooldown: %v", res.Quarantined)
	}
}

// TestBudgetTruncatesSlaveAnalysis exercises deadline propagation at the
// wire: a fake master sends an analyze with a 1 ms budget (already spent by
// the time the handler gets past the stalling hook), and the slave answers
// with skipped, Truncated reports instead of blowing through the deadline.
func TestBudgetTruncatesSlaveAnalysis(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sl := NewSlave("h", []string{"a", "b"}, core.Config{})
	for ts := int64(0); ts < 300; ts++ {
		for _, comp := range []string{"a", "b"} {
			for _, k := range metric.Kinds {
				if err := sl.Observe(comp, ts, k, float64(40+ts%13)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
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

	// The hook stalls past the 1 ms budget deterministically, so every
	// selection task sees an expired deadline and is skipped.
	setSlaveAnalyzeHook(func(slave string, tv int64) { time.Sleep(20 * time.Millisecond) })
	defer setSlaveAnalyzeHook(nil)
	if err := writeFrame(conn, &envelope{Type: typeAnalyze, ID: 11, TV: 299, BudgetMS: 1}, time.Second); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != typeReports || resp.ID != 11 {
		t.Fatalf("response = %+v, want reports for id 11", resp)
	}
	if len(resp.Reports) != 2 {
		t.Fatalf("got %d reports, want 2 (a truncated answer, not nothing)", len(resp.Reports))
	}
	for _, rep := range resp.Reports {
		if !rep.Truncated {
			t.Errorf("component %s: Truncated=false, want a deadline-truncated report", rep.Component)
		}
		if len(rep.Changes) != 0 {
			t.Errorf("component %s reported changes from a skipped analysis", rep.Component)
		}
	}
}

// TestMasterPropagatesTruncationAndQuarantine: the degradation markers a
// slave reports must surface on the LocalizeResult (and its String).
func TestMasterPropagatesTruncationAndQuarantine(t *testing.T) {
	master := NewMaster(core.Config{}, nil)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	conn, w := fakeSlave(t, master.Addr(), "q", []string{"qc"})
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 1 }, "registration")
	go func() {
		r := newReader(conn)
		for {
			env, err := readFrame(r)
			if err != nil {
				return
			}
			if env.Type != typeAnalyze {
				continue
			}
			rep := core.ComponentReport{
				Component:   "qc",
				Truncated:   true,
				Quarantined: []string{"cpu", "memory"},
			}
			_ = w.write(&envelope{Type: typeReports, ID: env.ID,
				Reports: []core.ComponentReport{rep}}, 2*time.Second)
		}
	}()

	res, err := master.Localize(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("truncated slave report must set LocalizeResult.Truncated")
	}
	if got := res.Quarantined["qc"]; len(got) != 2 || got[0] != "cpu" || got[1] != "memory" {
		t.Errorf("quarantined streams = %v, want qc:[cpu memory]", res.Quarantined)
	}
	if s := res.String(); !strings.Contains(s, "TRUNCATED") {
		t.Errorf("result string %q does not mark truncation", s)
	}
}
