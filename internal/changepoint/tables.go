package changepoint

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"fchain/internal/timeseries"
)

// Threshold tables: the precomputed alternative to per-query bootstrapping.
//
// The bootstrap estimates, for every analyzed segment, the null distribution
// of the CUSUM range by reshuffling the segment's own values a few hundred
// times — ~200 × O(n) work per segment, per metric, per query, and by far
// the dominant cost of the selection kernel. But the statistic it shuffles
// for is a pivot: under the exchangeable null the CUSUM range scales
// linearly with the segment's standard deviation and grows like √n, so the
// normalized statistic
//
//	x = (maxS − minS) / (σ̂ · √n)
//
// has a null distribution that depends only on the segment length. That
// distribution is simulated once per (length, resamples) pair from standard
// normal sequences with a fixed seed, sorted, and cached process-wide;
// afterwards every detection query is a closed-form normalization plus one
// binary search — no RNG, no resampling, identical across goroutines,
// processes, and query times. This is what makes streaming selection
// possible at all: the legacy bootstrap reseeded per (component, metric,
// tv), so no per-query work could ever be hoisted to ingest time.
//
// The resample count stays in the key so configurations with different
// Bootstraps never share quantiles, and so confidence retains the same 1/k
// granularity the bootstrap had.

type tableKey struct {
	n int // segment length
	k int // null-distribution sample count
}

// nullTables caches sorted null samples per key. Tables are immutable once
// stored; LoadOrStore makes concurrent builders converge on one copy.
var nullTables sync.Map // tableKey -> []float64

// nullTableSeed mixes the key into a fixed, documented seed. Changing it
// changes every detection verdict at the margin — treat it like a golden.
func nullTableSeed(n, k int) int64 {
	return 0x5eed<<32 ^ int64(n)*1_000_003 ^ int64(k)*7_368_787
}

// nullTable returns the sorted null distribution of the normalized CUSUM
// range for segments of length n, simulated from k fixed-seed standard
// normal sequences. Cost is O(k·n) once per key (~50 µs at the default
// n≈120, k=200), then a map load.
func nullTable(n, k int) []float64 {
	key := tableKey{n, k}
	if v, ok := nullTables.Load(key); ok {
		return v.([]float64)
	}
	rng := rand.New(rand.NewSource(nullTableSeed(n, k)))
	samples := make([]float64, k)
	vals := make([]float64, n)
	scale := math.Sqrt(float64(n))
	for b := range samples {
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		_, sdiff := cusumPeak(vals)
		if sd := timeseries.Std(vals); sd > 0 {
			samples[b] = sdiff / (sd * scale)
		}
	}
	sort.Float64s(samples)
	stored, _ := nullTables.LoadOrStore(key, samples)
	return stored.([]float64)
}

// rankConfidence is the fraction of the null samples tbl (for segments of
// length n) whose normalized CUSUM range falls below the observed one, sdiff
// over a segment with standard deviation sd. Degenerate segments (zero range
// or zero variance) report zero confidence, matching the bootstrap's
// observed==0 short-circuit.
func rankConfidence(sdiff, sd float64, n int, tbl []float64) float64 {
	if sdiff == 0 || sd == 0 {
		return 0
	}
	x := sdiff / (sd * math.Sqrt(float64(n)))
	// sort.SearchFloat64s(tbl, x), the entries strictly below x, without
	// its per-step closure call.
	below, hi := 0, len(tbl)
	for below < hi {
		h := int(uint(below+hi) >> 1)
		if tbl[h] >= x {
			hi = h
		} else {
			below = h + 1
		}
	}
	return float64(below) / float64(len(tbl))
}
