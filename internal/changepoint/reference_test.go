package changepoint

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fchain/internal/timeseries"
)

// refDetect is the recursive detector as it stood before the fused walk:
// separate passes for the segment mean, the CUSUM, the standard deviation
// and the two side means, and every null table read from the process-wide
// cache. Scratch.Detect is held to it bit for bit.
func refDetect(vals []float64, cfg Config) []Point {
	cfg = cfg.withDefaults()
	var points []Point
	shuffled := make([]float64, len(vals))
	var segment func(vals []float64, offset int)
	segment = func(vals []float64, offset int) {
		if len(vals) < cfg.MinSegment {
			return
		}
		idx, sdiff := refCusumPeak(vals)
		if idx <= 0 || idx >= len(vals)-1 {
			return
		}
		var conf float64
		if cfg.Thresholds > 0 {
			conf = refTableConfidence(vals, sdiff, cfg.Thresholds)
		} else {
			conf = refBootstrapConfidence(vals, sdiff, cfg, shuffled[:len(vals)])
		}
		if conf < cfg.Confidence {
			return
		}
		before := timeseries.Mean(vals[:idx])
		after := timeseries.Mean(vals[idx:])
		points = append(points, Point{
			Index:      offset + idx,
			Confidence: conf,
			Magnitude:  math.Abs(after - before),
			Before:     before,
			After:      after,
		})
		segment(vals[:idx], offset)
		segment(vals[idx:], offset+idx)
	}
	segment(vals, 0)
	sort.Slice(points, func(i, j int) bool { return points[i].Index < points[j].Index })
	return points
}

func refCusumPeak(vals []float64) (idx int, sdiff float64) {
	m := timeseries.Mean(vals)
	var (
		s        float64
		maxS     = math.Inf(-1)
		minS     = math.Inf(1)
		maxAbs   float64
		maxAbsAt int
	)
	for i, v := range vals {
		s += v - m
		if s > maxS {
			maxS = s
		}
		if s < minS {
			minS = s
		}
		if a := math.Abs(s); a > maxAbs {
			maxAbs = a
			maxAbsAt = i + 1
		}
	}
	return maxAbsAt, maxS - minS
}

func refBootstrapConfidence(vals []float64, observed float64, cfg Config, shuffled []float64) float64 {
	if observed == 0 {
		return 0
	}
	copy(shuffled, vals)
	below := 0
	for b := 0; b < cfg.Bootstraps; b++ {
		cfg.Rand.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if _, sd := refCusumPeak(shuffled); sd < observed {
			below++
		}
	}
	return float64(below) / float64(cfg.Bootstraps)
}

func refTableConfidence(vals []float64, sdiff float64, k int) float64 {
	if sdiff == 0 {
		return 0
	}
	sd := timeseries.Std(vals)
	if sd == 0 {
		return 0
	}
	x := sdiff / (sd * math.Sqrt(float64(len(vals))))
	tbl := nullTable(len(vals), k)
	below := sort.SearchFloat64s(tbl, x)
	return float64(below) / float64(len(tbl))
}

// samePoints reports the first difference between two detections, comparing
// every float field through its bits; "" when they are identical.
func samePoints(got, want []Point) string {
	if len(got) != len(want) {
		return "point count differs"
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.Index != w.Index:
			return "Index differs"
		case math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence):
			return "Confidence differs"
		case math.Float64bits(g.Magnitude) != math.Float64bits(w.Magnitude):
			return "Magnitude differs"
		case math.Float64bits(g.Before) != math.Float64bits(w.Before):
			return "Before differs"
		case math.Float64bits(g.After) != math.Float64bits(w.After):
			return "After differs"
		}
	}
	return ""
}

// referenceWindow draws one window of length n from the input families the
// bit-identity tests run over.
func referenceWindow(n int, rng *rand.Rand) (string, []float64) {
	out := make([]float64, n)
	noise := []float64{0, 0.01, 0.5, 3}[rng.Intn(4)]
	level := rng.NormFloat64() * 100
	kind := []string{"noise", "smoothed", "steps", "ramps", "constant-runs", "quantised", "special"}[rng.Intn(7)]
	switch kind {
	case "noise":
		for i := range out {
			out[i] = level + rng.NormFloat64()*(noise+1)
		}
	case "smoothed":
		for i := range out {
			out[i] = level + rng.NormFloat64()*(noise+1)
		}
		out = timeseries.Smooth(out, 1+rng.Intn(6))
	case "steps", "special":
		for i := range out {
			if rng.Intn(n/3+1) == 0 {
				level += rng.NormFloat64() * 20
			}
			out[i] = level + rng.NormFloat64()*noise
		}
		if kind == "special" {
			specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
			for j := 1 + rng.Intn(3); j > 0 && n > 0; j-- {
				out[rng.Intn(n)] = specials[rng.Intn(len(specials))]
			}
		}
	case "ramps":
		slope := rng.NormFloat64()
		for i := range out {
			if rng.Intn(n/2+1) == 0 {
				slope = rng.NormFloat64()
			}
			level += slope
			out[i] = level + rng.NormFloat64()*noise
		}
	case "constant-runs":
		for i := range out {
			if rng.Intn(20) == 0 {
				level = float64(rng.Intn(4))
			}
			out[i] = level
		}
	case "quantised":
		for i := range out {
			out[i] = float64(rng.Intn(5)) / 4
		}
	}
	return kind, out
}

// TestDetectMatchesReference holds Scratch.Detect to refDetect bit for bit
// on 10,000 windows of every length from 0 to 300, in table and bootstrap
// mode, through one reused Scratch whose table memo sees the resample count
// change.
func TestDetectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var sc Scratch
	const windows = 10_000
	for w := 0; w < windows; w++ {
		n := w % 301
		kind, vals := referenceWindow(n, rng)
		conf := []float64{0.95, 0.5}[rng.Intn(2)]
		minSeg := []int{0, 3, 8}[rng.Intn(3)]
		k := 200
		if w%50 == 49 {
			k = 25
		}
		for _, cfg := range []Config{
			{Thresholds: k, Confidence: conf, MinSegment: minSeg},
			{Bootstraps: 9, Confidence: conf, MinSegment: minSeg},
		} {
			want := refDetect(vals, cfg)
			got := sc.Detect(vals, cfg)
			if diff := samePoints(got, want); diff != "" {
				t.Fatalf("window %d (%s, n=%d, cfg %+v): %s\n got  %+v\n want %+v", w, kind, n, cfg, diff, got, want)
			}
		}
	}
}

// TestDetectWarmScratchAllocFree: once a Scratch has seen a window's
// length, detecting on it again allocates nothing, in table mode (the
// selection kernel's) and in bootstrap mode.
func TestDetectWarmScratchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	vals := smoothedNoise(120, 5)
	for _, cfg := range []Config{{Thresholds: 200}, {Bootstraps: 20, Rand: rand.New(rand.NewSource(1))}} {
		var sc Scratch
		sc.Detect(vals, cfg)
		if allocs := testing.AllocsPerRun(50, func() { sc.Detect(vals, cfg) }); allocs != 0 {
			t.Fatalf("cfg %+v: warm Scratch.Detect allocates %.1f times per call", cfg, allocs)
		}
	}
}

// smoothedNoise is a selection-kernel-shaped window: level-shifted noise
// smoothed with the default width, a step two thirds of the way in.
func smoothedNoise(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 50 + rng.NormFloat64()*4
		if i >= 2*n/3 {
			vals[i] += 12
		}
	}
	return timeseries.Smooth(vals, 5)
}

// BenchmarkModuleChangepointDetect is the selection kernel's detection step
// on a 120-sample smoothed noisy window: table mode through a warm Scratch.
func BenchmarkModuleChangepointDetect(b *testing.B) {
	vals := smoothedNoise(120, 5)
	cfg := Config{Thresholds: 200}
	var sc Scratch
	sc.Detect(vals, cfg)
	b.ReportAllocs()
	for b.Loop() {
		sc.Detect(vals, cfg)
	}
}
