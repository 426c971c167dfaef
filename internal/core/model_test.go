package core

import (
	"math"
	"testing"

	"fchain/internal/metric"
)

// TestIngestSteadyStateAllocs guards the collection hot path: once a
// monitor's rings are full and its models warm, feeding a sample through
// the sanitizing Ingest must not allocate. The slave calls it for every
// (component, metric, second).
func TestIngestSteadyStateAllocs(t *testing.T) {
	cfg := Config{}.withDefaults()
	m := NewMonitor("c", cfg)
	ts := int64(0)
	tick := func() {
		for _, k := range metric.Kinds {
			v := 50 + 10*math.Sin(float64(ts)/9) + float64(int64(k)) + float64(ts*7919%13)/4
			if err := m.Ingest(ts, k, v); err != nil {
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
		t.Fatalf("steady-state Ingest allocates %v objects per %d samples, want 0", allocs, metric.NumKinds)
	}
}
