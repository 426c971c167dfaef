package core

import (
	"strings"
	"testing"

	"fchain/internal/obs"
)

func TestLatencyHistEmpty(t *testing.T) {
	var h LatencyHist
	if got := h.MeanNS(); got != 0 {
		t.Errorf("empty MeanNS = %d, want 0", got)
	}
	if got := h.QuantileNS(0.99); got != 0 {
		t.Errorf("empty QuantileNS = %d, want 0", got)
	}
	if got := h.String(); got != "n=0" {
		t.Errorf("empty String = %q, want n=0", got)
	}
}

func TestLatencyHistSingleBucket(t *testing.T) {
	var h LatencyHist
	// All observations in bucket 9: [512, 1024).
	for _, ns := range []int64{600, 700, 1000} {
		h.Observe(ns)
	}
	if h.Count != 3 || h.Buckets[9] != 3 {
		t.Fatalf("count=%d bucket9=%d, want 3/3", h.Count, h.Buckets[9])
	}
	if got := h.MeanNS(); got != (600+700+1000)/3 {
		t.Errorf("MeanNS = %d", got)
	}
	if h.MaxNS != 1000 {
		t.Errorf("MaxNS = %d, want 1000", h.MaxNS)
	}
	// Every quantile lands in the one bucket; its edge (1023) overshoots
	// the recorded max, so the tighter MaxNS bound wins.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.QuantileNS(q); got != 1000 {
			t.Errorf("QuantileNS(%g) = %d, want 1000", q, got)
		}
	}
	// Out-of-range q is clamped.
	if h.QuantileNS(-1) != h.QuantileNS(0) || h.QuantileNS(2) != h.QuantileNS(1) {
		t.Error("QuantileNS did not clamp q")
	}
}

func TestLatencyHistQuantileIsUpperBound(t *testing.T) {
	var h LatencyHist
	for _, ns := range []int64{1, 100, 5_000, 250_000, 9_000_000} {
		h.Observe(ns)
	}
	// The p100 bound must cover the largest observation.
	if got := h.QuantileNS(1); got < 9_000_000 {
		t.Errorf("QuantileNS(1) = %d, below max observation", got)
	}
	// A mid quantile bound must cover its own bucket's observations.
	if got := h.QuantileNS(0.5); got < 5_000 {
		t.Errorf("QuantileNS(0.5) = %d, below the median observation", got)
	}
}

func TestLatencyHistOverflowBucket(t *testing.T) {
	var h LatencyHist
	huge := int64(1) << 45 // far beyond the last bucket's nominal edge
	h.Observe(huge)
	if h.Buckets[obs.HistBuckets-1] != 1 {
		t.Fatalf("overflow observation not in last bucket: %+v", h.Buckets)
	}
	if h.MaxNS != huge {
		t.Fatalf("MaxNS = %d, want %d", h.MaxNS, huge)
	}
	// Regression: the overflow bucket's nominal edge (2^40-1) is smaller
	// than the observation; QuantileNS must still return an upper bound.
	if got := h.QuantileNS(0.99); got != huge {
		t.Errorf("QuantileNS(0.99) = %d, want %d (the recorded max)", got, huge)
	}
	// Negative durations clamp to zero and land in bucket 0.
	h.Observe(-17)
	if h.Buckets[0] != 1 || h.SumNS != huge {
		t.Errorf("negative observation mishandled: b0=%d sum=%d", h.Buckets[0], h.SumNS)
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b LatencyHist
	a.Observe(100)
	a.Observe(200)
	b.Observe(1 << 20)
	b.Observe(3)
	a.Merge(b)
	if a.Count != 4 {
		t.Errorf("merged Count = %d, want 4", a.Count)
	}
	if a.SumNS != 100+200+(1<<20)+3 {
		t.Errorf("merged SumNS = %d", a.SumNS)
	}
	if a.MaxNS != 1<<20 {
		t.Errorf("merged MaxNS = %d, want %d", a.MaxNS, 1<<20)
	}
	var total int64
	for _, c := range a.Buckets {
		total += c
	}
	if total != a.Count {
		t.Errorf("bucket total %d != count %d", total, a.Count)
	}
	// Merging an empty histogram changes nothing.
	before := a
	a.Merge(LatencyHist{})
	if a != before {
		t.Error("merging empty histogram changed state")
	}
}

func TestLatencyHistString(t *testing.T) {
	var h LatencyHist
	h.Observe(1_500_000) // 1.5ms
	s := h.String()
	for _, want := range []string{"n=1", "mean=1.5ms", "max=1.5ms", "p99<=1.5ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String = %q, missing %q", s, want)
		}
	}
}

func TestPoolStatsMergeAndString(t *testing.T) {
	var a, b PoolStats
	a.Workers, a.Tasks = 1, 6
	a.Select.Observe(1000)
	b.Workers, b.Tasks = 4, 24
	b.Select.Observe(2000)
	b.Diagnose.Observe(500)
	a.Merge(b)
	if a.Workers != 4 || a.Tasks != 30 {
		t.Errorf("merged shape = workers=%d tasks=%d", a.Workers, a.Tasks)
	}
	if a.Select.Count != 2 || a.Diagnose.Count != 1 {
		t.Errorf("merged hist counts = %d/%d", a.Select.Count, a.Diagnose.Count)
	}
	s := a.String()
	if !strings.Contains(s, "workers=4 tasks=30") || !strings.Contains(s, "select[") || !strings.Contains(s, "diagnose[") {
		t.Errorf("String = %q", s)
	}
}
