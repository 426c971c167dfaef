package core

import (
	"math"
	"runtime"
	"testing"

	"fchain/internal/cloudsim"
	"fchain/internal/meshgen"
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
// rings are full: the heap a slave needs per component is what limits how
// many one host can monitor. Rings store 8 bytes per sample in one array per
// monitor, and a predictor stores only the transitions it has seen, so the
// bytes depend on how many pairs of value bins a signal visits.
func TestMonitorResidentBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	cfg := DefaultConfig()
	t.Run("ramp", func(t *testing.T) {
		// A rising ramp keeps leaving the model's range, so every predictor
		// remaps repeatedly and visits many bins.
		ramp := func(_ int, ts int64, k metric.Kind) float64 {
			return 20 + float64(ts)/8 + 5*math.Sin(float64(ts)/7) + float64(k)
		}
		horizon := int64(cfg.RingCapacity) + 100
		mons := checkResidentBytes(t, cfg, 64, horizon, ramp, 155_100*105/100) // measured + 5 %
		// The first sample's range ends at 1.5× its value.
		if _, hi := mons[0].shards[metric.CPU].model.Range(); hi <= 1.5*ramp(0, 0, metric.CPU) {
			t.Fatal("the signal never grew a model's range")
		}
	})
	t.Run("diurnal", func(t *testing.T) {
		comps, healthy := diurnalFeed(t)
		checkResidentBytes(t, cfg, comps, diurnalUntil, healthy, 152_000*105/100) // measured + 5 %
	})
	t.Run("streaming", func(t *testing.T) {
		// The diurnal feed again, with the streaming state on top.
		scfg := cfg
		scfg.Streaming = true
		comps, healthy := diurnalFeed(t)
		checkResidentBytes(t, scfg, comps, diurnalUntil, healthy, 194_400*105/100) // measured + 5 %
	})
}

// diurnalUntil is the horizon of diurnalFeed: past one diurnal period.
const diurnalUntil = 2100

// diurnalFeed is a healthy mesh: meshgen's diurnal and short-cycle workload
// with AR(1) noise, run through cloudsim for diurnalUntil seconds. It
// returns the component count and the value of (component, ts, kind).
func diurnalFeed(t *testing.T) (int, func(int, int64, metric.Kind) float64) {
	t.Helper()
	mesh, err := meshgen.Generate(meshgen.Params{Components: 64, FanOut: 4, Depth: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cloudsim.New(mesh.SpecWithTrace(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(diurnalUntil)
	comps := sim.Components()
	cols := make([][metric.NumKinds + 1][]float64, len(comps))
	for i, c := range comps {
		for _, k := range metric.Kinds {
			s, err := sim.Series(c, k)
			if err != nil {
				t.Fatal(err)
			}
			v := s.Values()
			cols[i][k] = v[len(v)-diurnalUntil:]
		}
	}
	return len(comps), func(i int, ts int64, k metric.Kind) float64 { return cols[i][k][ts] }
}

// checkResidentBytes feeds monitors value(monitor, ts, kind) for ts in
// [0, horizon), fails if the heap each keeps exceeds limit, and returns them.
func checkResidentBytes(t *testing.T, cfg Config, monitors int, horizon int64, value func(int, int64, metric.Kind) float64, limit int64) []*Monitor {
	t.Helper()
	feed := func(i int, m *Monitor, ts int64) {
		for _, k := range metric.Kinds {
			if err := m.Ingest(ts, k, value(i, ts, k)); err != nil {
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
		feed(i, mons[i], 0)
	}
	for ts := int64(1); ts < horizon; ts++ {
		for i, m := range mons {
			feed(i, m, ts)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(mons)
	runtime.KeepAlive(value)
	perMonitor := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(monitors)
	t.Logf("%d bytes resident per monitor", perMonitor)
	if perMonitor > limit {
		t.Fatalf("%d bytes resident per monitor, want <= %d", perMonitor, limit)
	}
	return mons
}
