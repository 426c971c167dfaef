package core

import (
	"math"
	"runtime"
	"testing"

	"fchain/internal/metric"
)

// TestIngestSteadyStateAllocs guards the collection hot path: once a
// monitor's rings are full and its models warm, feeding a sample must not
// allocate, neither through the sanitizing Ingest the slave calls for every
// (component, metric, second) nor through the strict Observe an in-process
// Localizer calls (BenchmarkModuleMonitoring's path).
func TestIngestSteadyStateAllocs(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, tc := range []struct {
		name string
		feed func(m *Monitor, t int64, k metric.Kind, v float64) error
	}{
		{"Ingest", (*Monitor).Ingest},
		{"Observe", (*Monitor).Observe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor("c", cfg)
			ts := int64(0)
			tick := func() {
				for _, k := range metric.Kinds {
					v := 50 + 10*math.Sin(float64(ts)/9) + float64(int64(k)) + float64(ts*7919%13)/4
					if err := tc.feed(m, ts, k, v); err != nil {
						t.Fatal(err)
					}
				}
				ts++
			}
			for ts < int64(cfg.RingCapacity)+100 {
				tick()
			}
			if raceEnabled {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
			if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
				t.Fatalf("steady-state %s allocates %v objects per %d samples, want 0", tc.name, allocs, metric.NumKinds)
			}
		})
	}
}

// TestMonitorResidentBytes bounds what a monitor keeps resident once its
// rings are full and every model has remapped its range at least once: the
// heap a slave needs per component is what limits how many one host can
// monitor. Rings store 8 bytes per sample and a predictor keeps one
// transition matrix, so a DefaultConfig monitor holds about 240 KB.
func TestMonitorResidentBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const monitors = 64
	const limit = 260 << 10
	cfg := DefaultConfig()
	feed := func(m *Monitor, ts int64) {
		for _, k := range metric.Kinds {
			// A rising ramp keeps leaving the model's range, so every
			// predictor remaps repeatedly.
			v := 20 + float64(ts)/8 + 5*math.Sin(float64(ts)/7) + float64(k)
			if err := m.Ingest(ts, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mons := make([]*Monitor, monitors)
	for i := range mons {
		mons[i] = NewMonitor("c", cfg)
		feed(mons[i], 0)
	}
	_, hi0 := mons[0].shards[metric.CPU].model.Range()
	for ts := int64(1); ts < int64(cfg.RingCapacity)+100; ts++ {
		for _, m := range mons {
			feed(m, ts)
		}
	}
	if _, hi := mons[0].shards[metric.CPU].model.Range(); hi == hi0 {
		t.Fatal("the signal never grew a model's range")
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(mons)
	perMonitor := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / monitors
	t.Logf("%d bytes resident per monitor", perMonitor)
	if perMonitor > limit {
		t.Fatalf("%d bytes resident per monitor, want <= %d", perMonitor, limit)
	}
}
