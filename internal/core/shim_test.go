package core

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"fchain/internal/metric"
)

// TestStreamingFlagIsIgnored guards the compile shim Config.Streaming and
// Monitor.StreamingStats leave behind: a monitor built with the flag on is
// the batch monitor. One trace — workload fluctuation, then a sustained
// shift on cpu and a leak-style ramp on memory — feeds a monitor with the
// flag on and one with it off. Analyzed at every head, their reports marshal
// to the same bytes; the on side's StreamingStats stay zero; and the two
// keep the same bytes resident.
func TestStreamingFlagIsIgnored(t *testing.T) {
	const (
		monitors = 4
		inject   = 1500
		horizon  = 1700
	)
	rng := rand.New(rand.NewSource(42))
	trace := make([][metric.NumKinds + 1]float64, horizon)
	for ts := range trace {
		for _, k := range metric.Kinds {
			v := float64(40+ts%23) + float64(ts%7) + rng.NormFloat64()*0.3
			if ts >= inject {
				switch k {
				case metric.CPU:
					v += 45
				case metric.Memory:
					v += float64(ts-inject) * 1.5
				}
			}
			trace[ts][k] = v
		}
	}
	feed := func(m *Monitor, ts int) {
		for _, k := range metric.Kinds {
			if err := m.Observe(int64(ts), k, trace[ts][k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// build feeds the trace to fresh monitors and returns them with the heap
	// each keeps resident.
	build := func(streaming bool) ([]*Monitor, int64) {
		cfg := DefaultConfig()
		cfg.Streaming = streaming
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		mons := make([]*Monitor, monitors)
		for i := range mons {
			mons[i] = NewMonitor("comp", cfg)
			for ts := range trace {
				feed(mons[i], ts)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return mons, (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / monitors
	}
	on, onBytes := build(true)
	off, offBytes := build(false)
	// A heap reading moves by a few bytes between identical builds (the
	// runtime's own allocations); the deleted streaming state kept ~42 KB.
	t.Logf("resident bytes per monitor: Streaming on %d, off %d", onBytes, offBytes)
	if d := onBytes - offBytes; !raceEnabled && (d > 64 || d < -64) {
		t.Fatalf("Streaming on keeps %d bytes resident per monitor, off %d", onBytes, offBytes)
	}
	runtime.KeepAlive(off)

	stream, batch := NewMonitor("comp", Config{Streaming: true}), NewMonitor("comp", Config{})
	abnormal := 0
	for ts := range trace {
		feed(stream, ts)
		feed(batch, ts)
		if ts < 300 {
			continue // too little history for a look-back window
		}
		rep := stream.Analyze(int64(ts))
		if rep.Abnormal() {
			abnormal++
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(batch.Analyze(int64(ts)))
		if err != nil {
			t.Fatal(err)
		}
		if string(js) != string(jb) {
			t.Fatalf("tv=%d: Streaming on reports %s\noff reports %s", ts, js, jb)
		}
	}
	if abnormal == 0 {
		t.Fatal("no head reported the injected shift; the comparison never saw an abnormal report")
	}
	for _, m := range append(on, stream) {
		if st := m.StreamingStats(); st != (StreamingStats{}) {
			t.Fatalf("StreamingStats = %+v, want zero", st)
		}
	}
}
