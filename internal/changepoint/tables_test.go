package changepoint

import (
	"math/rand"
	"sync"
	"testing"

	"fchain/internal/timeseries"
)

// tableConfidence is the table-driven counterpart of bootstrapConfidence
// for a whole segment whose CUSUM range is sdiff.
func tableConfidence(vals []float64, sdiff float64, k int) float64 {
	return rankConfidence(sdiff, timeseries.Std(vals), len(vals), nullTable(len(vals), k))
}

// TestDetectThresholdsDeterministic: table-driven detection is a pure
// function of the window — identical across calls and across goroutines
// racing to build the shared tables.
func TestDetectThresholdsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 10 + rng.NormFloat64()
		if i >= 60 {
			vals[i] += 25
		}
	}
	cfg := Config{Thresholds: 200, Confidence: 0.95}
	want := Detect(vals, cfg)
	if len(want) == 0 {
		t.Fatal("table-driven detection missed a 25-sigma step")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Detect(vals, cfg)
			if len(got) != len(want) {
				t.Errorf("goroutine saw %d points, want %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("point %d differs: %+v vs %+v", i, got[i], want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestDetectThresholdsAgreesWithBootstrap: on an unambiguous step the two
// significance tests must select the same change point, and on constant
// input both must stay silent.
func TestDetectThresholdsAgreesWithBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 20 + rng.NormFloat64()*0.5
		if i >= 50 {
			vals[i] += 30
		}
	}
	boot := Detect(vals, Config{Bootstraps: 200, Rand: rand.New(rand.NewSource(1))})
	tbl := Detect(vals, Config{Thresholds: 200})
	if len(boot) == 0 || len(tbl) == 0 {
		t.Fatalf("step missed: bootstrap=%d table=%d points", len(boot), len(tbl))
	}
	if boot[0].Index != tbl[0].Index {
		// Both must land on the step; secondary points may differ at the
		// significance margin.
		t.Fatalf("primary point differs: bootstrap idx %d, table idx %d", boot[0].Index, tbl[0].Index)
	}
	flat := make([]float64, 60)
	for i := range flat {
		flat[i] = 7
	}
	if pts := Detect(flat, Config{Thresholds: 200}); len(pts) != 0 {
		t.Fatalf("constant series produced %d table-mode points", len(pts))
	}
}

// TestTableFalsePositiveRate: at confidence 0.95 the table test should pass
// white noise through quietly — well under a 15% top-level trip rate over
// seeded trials (the bootstrap's own behavior on iid input).
func TestTableFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trips := 0
	const trials = 200
	vals := make([]float64, 80)
	for trial := 0; trial < trials; trial++ {
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		idx, sdiff := cusumPeak(vals)
		if idx <= 0 || idx >= len(vals)-1 {
			continue
		}
		if tableConfidence(vals, sdiff, 200) >= 0.95 {
			trips++
		}
	}
	if trips > trials*15/100 {
		t.Fatalf("table test tripped on %d/%d white-noise windows", trips, trials)
	}
}
