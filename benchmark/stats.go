package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// with fewer, the percentile is decided by a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between order statistics; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median is the 0.5-quantile of vals (unsorted input).
func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// quartiles summarises a sample for the result file.
type quartiles struct {
	N   int     `json:"n"`
	Q1  float64 `json:"q1"`
	Med float64 `json:"median"`
	Q3  float64 `json:"q3"`
}

func quartilesOf(vals []float64) quartiles {
	s := sortedCopy(vals)
	return quartiles{N: len(s), Q1: quantile(s, 0.25), Med: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// iqrRatio is the interquartile distance as a share of the median, the
// spread measure the acceptance gate uses; 0 when the median is 0.
func (q quartiles) iqrRatio() float64 {
	if q.Med == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / q.Med
}

// highestPercentile returns the highest whole percentile above the median
// that still has at least minBeyond of n samples beyond it, or 0 when n is
// too small for any.
func highestPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if tailSupported(n, p) {
			return p
		}
	}
	return 0
}

// tailSupported reports whether n samples support reporting percentile p,
// i.e. at least minBeyond samples lie beyond it.
func tailSupported(n, p int) bool {
	idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
	return n-1-idx >= minBeyond
}

// sliceRates turns equal-work slice durations (seconds) into rates.
func sliceRates(samplesPerSlice int64, secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		if s > 0 {
			out[i] = float64(samplesPerSlice) / s
		}
	}
	return out
}
