package cluster

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fchain/internal/core"
	"fchain/internal/faultnet"
	"fchain/internal/ingest"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// TestChaosSoak runs a ~30 s localize loop against a cluster whose slaves
// feed a corrupted metric stream through lossy links that are periodically
// severed. It asserts the system neither panics nor leaks goroutines, that
// localization keeps succeeding under the chaos, and that the event journal
// written along the way is well-formed.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("30s soak")
	}
	sim, tv, deps := faultScenario(t, 1)
	grace := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(grace) {
		time.Sleep(5 * time.Millisecond) // let helper goroutines from setup settle
	}
	baseline := runtime.NumGoroutine()

	journalPath := filepath.Join(t.TempDir(), "soak.jsonl")
	journal, err := obs.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{
		Log:     obs.NewLogger(io.Discard, obs.LevelWarn),
		Metrics: obs.NewRegistry(),
		Traces:  obs.NewTraceRing(8),
		Journal: journal,
	}

	master := NewMaster(core.Config{}, deps,
		WithMasterObs(sink),
		WithLocalizeTimeout(5*time.Second),
		func(m *Master) { m.brThreshold, m.brCooldown = 1000, time.Millisecond }) // never park a slave for long
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Half the slaves connect through lossy, severable proxies.
	comps := sim.Components()
	var proxies []*faultnet.Proxy
	var slaves []*Slave
	for i, comp := range comps {
		addr := master.Addr()
		if i%2 == 0 {
			proxy, err := faultnet.NewProxy(master.Addr(), faultnet.Config{
				Seed:     int64(100 + i),
				DropProb: 0.01,
				Latency:  time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			proxies = append(proxies, proxy)
			addr = proxy.Addr()
		}
		sl := NewSlave("host-"+comp, []string{comp}, core.Config{ReorderWindow: 5},
			WithSlaveObs(sink),
			WithBackoff(10*time.Millisecond, 100*time.Millisecond))
		if err := sl.Connect(addr); err != nil {
			t.Fatal(err)
		}
		slaves = append(slaves, sl)
	}
	waitFor(t, 5*time.Second, func() bool { return len(master.Slaves()) == len(comps) }, "registrations")

	// Feeders push the corrupted capture concurrently with the localize
	// loop: drops, dups, NaNs, magnitude spikes, and bounded reordering,
	// all through the sanitizing Ingest path.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, comp := range comps {
		for _, k := range metric.Kinds {
			series, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			var clean []ingest.Sample
			for j := 0; j < series.Len() && series.TimeAt(j) <= tv; j++ {
				clean = append(clean, ingest.Sample{T: series.TimeAt(j), V: series.At(j)})
			}
			dirty := ingest.Corrupt(clean, ingest.CorruptConfig{
				Seed:      int64(i)*10 + int64(k),
				DropRate:  0.02,
				DupRate:   0.01,
				NaNRate:   0.01,
				SpikeRate: 0.005,
				JitterMax: 3,
			})
			wg.Add(1)
			go func(sl *Slave, comp string, k metric.Kind, dirty []ingest.Sample) {
				defer wg.Done()
				for j, s := range dirty {
					if j%500 == 0 {
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
					}
					if err := sl.Ingest(comp, s.T, k, s.V); err != nil {
						t.Errorf("ingest %s/%s: %v", comp, k, err)
						return
					}
				}
			}(slaves[i], comp, k, dirty)
		}
	}

	// The soak loop: localize continuously, severing a proxy every second
	// so slaves are mid-reconnect while requests are in flight.
	var ok, failed atomic.Int64
	deadline := time.Now().Add(30 * time.Second)
	lastSever := time.Now()
	severed := 0
	for time.Now().Before(deadline) {
		if time.Since(lastSever) > time.Second {
			proxies[severed%len(proxies)].Sever()
			severed++
			lastSever = time.Now()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := master.Localize(ctx, tv)
		cancel()
		if err != nil {
			failed.Add(1)
		} else {
			ok.Add(1)
			if res.Trace == nil {
				t.Error("successful Localize returned no trace")
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatalf("no Localize succeeded during the soak (%d failures)", failed.Load())
	}
	t.Logf("soak: %d localizations ok, %d failed, %d severs", ok.Load(), failed.Load(), severed)

	// Tear everything down and verify the goroutine count returns to the
	// baseline (with grace for exiting handlers).
	for _, sl := range slaves {
		sl.Close()
	}
	for _, p := range proxies {
		p.Close()
	}
	master.Close()
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+5
	}, "goroutine count to settle")

	// The journal must be fully parseable and contain the soak's record.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatalf("journal malformed: %v", err)
	}
	var localized, analyzed int64
	for _, ev := range events {
		switch ev.Type {
		case "localize":
			localized++
		case "analyze":
			analyzed++
		}
	}
	if localized == 0 || analyzed == 0 {
		t.Errorf("journal events: %d localize, %d analyze, want both > 0 (total %d)",
			localized, analyzed, len(events))
	}
	// And the shared metrics registry saw the traffic from both layers.
	if n := sink.Registry().Counter("fchain_ingest_samples_total", "").Value(); n == 0 {
		t.Error("ingest counter never incremented")
	}
	okCount := sink.Registry().CounterWith("fchain_localize_total", "", map[string]string{"outcome": "ok"})
	if okCount.Value() != ok.Load() {
		t.Errorf("localize ok counter = %d, want %d", okCount.Value(), ok.Load())
	}
}

// TestAdmissionShedSoak hammers a tightly-admitted master from four times as
// many callers as it will run, each making a fixed number of Localize calls
// and waiting out the Retry-After hint after a shed. The callers start
// together behind a barrier, so the first calls meet a full gate. It checks
// the shedding story end to end: work still completes, some calls are
// shed, every shed call carries the Overloaded flag, the shed outcome
// counter and journal reconcile exactly with the callers' own tally, and no
// admission slot leaks. Run with -race: the gate's slot counter is the
// contended structure.
func TestAdmissionShedSoak(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "shed-soak.jsonl")
	journal, err := obs.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{
		Log:     obs.NewLogger(io.Discard, obs.LevelWarn),
		Metrics: obs.NewRegistry(),
		Traces:  obs.NewTraceRing(8),
		Journal: journal,
	}
	master := NewMaster(core.Config{}, nil,
		WithMasterObs(sink),
		WithAdmission(2))
	tv := overloadCluster(t, master, nil)
	waitFor(t, 5*time.Second, func() bool { return len(master.Slaves()) == 4 }, "registrations")

	const callers, calls = 8, 40
	var ok, shed, failed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range calls {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				res, err := master.Localize(ctx, tv)
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case res.Overloaded:
					// Shed synchronously: both slots were held. Wait out
					// the hint, as a client honouring Retry-After does.
					shed.Add(1)
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("overloaded result with an error other than ErrOverloaded: %v", err)
					}
					time.Sleep(time.Duration(res.RetryAfterMS) * time.Millisecond)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	t.Logf("shed soak: %d ok, %d shed, %d failed", ok.Load(), shed.Load(), failed.Load())
	if ok.Load() == 0 {
		t.Error("no Localize completed under admission pressure")
	}
	if shed.Load() == 0 {
		t.Error("8 callers against a limit-2 gate shed nothing")
	}
	if n := sink.Registry().CounterWith("fchain_localize_total", "",
		map[string]string{"outcome": "shed"}).Value(); n != shed.Load() {
		t.Errorf("shed counter = %d, callers observed %d", n, shed.Load())
	}
	if n := sink.Registry().CounterWith("fchain_localize_total", "",
		map[string]string{"outcome": "ok"}).Value(); n != ok.Load() {
		t.Errorf("ok counter = %d, callers observed %d", n, ok.Load())
	}

	// Every admission slot must be free again after the storm.
	for i := 0; i < 2; i++ {
		if !master.admit.tryAcquire() {
			t.Fatal("admission slot leaked after soak")
		}
	}

	// The journal recorded exactly one localize_shed event per shed call.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatalf("journal malformed: %v", err)
	}
	var shedEvents int64
	for _, ev := range events {
		if ev.Type == "localize_shed" {
			shedEvents++
		}
	}
	if shedEvents != shed.Load() {
		t.Errorf("journal localize_shed events = %d, want %d", shedEvents, shed.Load())
	}
}
