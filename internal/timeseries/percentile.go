package timeseries

import (
	"math/bits"
	"sort"
)

// PercentileScratch returns the p-th percentile (0 <= p <= 100) of vals by
// linear interpolation between the two closest ranks, or ErrEmpty for empty
// input. vals is copied into *scratch (grown as needed and written back), so
// a reused scratch makes repeated percentile queries allocation-free. The
// input is never mutated.
//
// The copy is partially ordered by selection, not sorted: the two closest
// ranks are order statistics of the multiset of values, so they are the
// very values a full sort would leave at those positions and the result
// carries the same bits, for O(n) work.
func PercentileScratch(vals []float64, p float64, scratch *[]float64) (float64, error) {
	if len(vals) == 0 {
		return 0, ErrEmpty
	}
	buf := append((*scratch)[:0], vals...)
	*scratch = buf
	lo, frac := closestRank(len(buf), p)
	return pick(buf, lo, frac), nil
}

// PercentilePairScratch returns the pLow-th and pHigh-th percentiles
// (pLow <= pHigh) of vals. Each result is bit-identical to what
// PercentileScratch returns for the same p.
//
// A tail pair — each percentile reads at most tailScanMax values from its
// end, as p1/p99 over up to ~3,000 samples do — is answered from what one
// scan keeps of each end (tailScan). Other pairs, and the rare tail pair
// the scan cannot settle, are selected from a single copy: once the high
// rank is in place everything left of it is no larger, so the low rank is
// selected inside that part alone.
func PercentilePairScratch(vals []float64, pLow, pHigh float64, scratch *[]float64) (low, high float64, err error) {
	if len(vals) == 0 {
		return 0, 0, ErrEmpty
	}
	n := len(vals)
	loH, fracH := closestRank(n, pHigh)
	loL, fracL := closestRank(n, pLow)
	// The low percentile reads the loL+1 smallest values (one more when it
	// interpolates), the high one the n-loH largest.
	nLow, nHigh := loL+1, n-loH
	if fracL != 0 {
		nLow++
	}
	if nLow <= tailScanMax && nHigh <= tailScanMax {
		if cap(*scratch) < 2*n {
			*scratch = make([]float64, 2*n)
		}
		if lows, highs, ok := tailScan(vals, nLow, nHigh, (*scratch)[:2*n]); ok {
			return pick(lows, loL, fracL), pick(highs, len(highs)-nHigh, fracH), nil
		}
	}
	buf := append((*scratch)[:0], vals...)
	*scratch = buf
	high = pick(buf, loH, fracH)
	if loL+1 < loH {
		// Both ranks the low percentile reads lie strictly below loH, and
		// buf[:loH] holds exactly the loH smallest values.
		buf = buf[:loH]
	}
	return pick(buf, loL, fracL), high, nil
}

// tailScanMax is the largest count of values at one end a percentile may
// read for PercentilePairScratch to try tailScan.
const tailScanMax = 32

// tailSample is the most values tailScan samples to place its bars.
const tailSample = 128

// tailScan keeps, in one branch-free pass over vals, every value at or
// below a low bar in lows and every value at or above a high bar in highs
// (buf holds 2·len(vals) values). The bars are order statistics of an
// evenly strided sample of vals, placed so that each side keeps about three
// times the nLow smallest (nHigh largest) values it must contain. ok is
// false when a side kept fewer than that, which an unlucky sample or NaNs
// can cause; then nothing is known. When ok, lows holds every value no
// larger than the nLow-th smallest and highs every value no smaller than
// the nHigh-th largest, so as order statistics the nLow smallest of lows
// and the nHigh largest of highs are the values a full sort would put at
// the two ends, and a rank picked among them carries the same bits.
func tailScan(vals []float64, nLow, nHigh int, buf []float64) (lows, highs []float64, ok bool) {
	n := len(vals)
	stride := (n + tailSample - 1) / tailSample
	sample := buf[:(n+stride-1)/stride]
	for i := range sample {
		sample[i] = vals[i*stride]
	}
	s := len(sample)
	kLow := min(s-1, (3*nLow*s+n-1)/n)
	kHigh := s - 1 - min(s-1, (3*nHigh*s+n-1)/n)
	selectNth(sample, kLow)
	lowBar := sample[kLow]
	selectNth(sample, kHigh)
	highBar := sample[kHigh]

	lows, highs = buf[:n], buf[n:]
	nl, nh := 0, 0
	for _, v := range vals {
		lows[nl] = v
		highs[nh] = v
		// Conditional assignments of constants, as in split: the
		// comparisons feed additions, not branches.
		stepLow, stepHigh := 0, 0
		if v <= lowBar {
			stepLow = 1
		}
		if v >= highBar {
			stepHigh = 1
		}
		nl += stepLow
		nh += stepHigh
	}
	if nl < nLow || nh < nHigh {
		return nil, nil, false
	}
	return lows[:nl], highs[:nh], true
}

// closestRank locates the p-th percentile (clamped to [0, 100]) among n
// sorted values: it lies frac of the way from the lo-th smallest value to
// the next one. Together with interpolate it is the only copy of the
// percentile arithmetic: PercentileScratch, PercentilePairScratch and its
// tail scan all go through these two functions, which is what keeps them
// bit-identical.
func closestRank(n int, p float64) (lo int, frac float64) {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(n-1)
	lo = int(rank)
	return lo, rank - float64(lo)
}

// interpolate reads the percentile closestRank located out of a slice whose
// positions lo and, when frac > 0, lo+1 hold the values a full sort would
// put there.
func interpolate(ordered []float64, lo int, frac float64) float64 {
	if frac == 0 {
		return ordered[lo]
	}
	return ordered[lo]*(1-frac) + ordered[lo+1]*frac
}

// pick reorders buf just enough to interpolate at rank lo+frac and returns
// the result. Afterwards buf[lo] holds the lo-th smallest value with nothing
// larger before it and nothing smaller after it. A fractional rank needs the
// next value up as well, which is the minimum of what selection left after
// lo.
func pick(buf []float64, lo int, frac float64) float64 {
	selectNth(buf, lo)
	if frac != 0 {
		at := lo + 1
		for i := at + 1; i < len(buf); i++ {
			if buf[i] < buf[at] {
				at = i
			}
		}
		buf[lo+1], buf[at] = buf[at], buf[lo+1]
	}
	return interpolate(buf, lo, frac)
}

// selectCutoff is the range length at or below which selectNth stops
// partitioning and insertion-sorts what is left.
const selectCutoff = 12

// selectNth reorders a so that a[k] holds its k-th smallest value, a[:k]
// nothing larger and a[k+1:] nothing smaller. It is an introselect: a
// median-of-three quickselect with no randomness (the same input always
// takes the same path), whose partition passes are capped at twice the bit
// length of len(a). Samples arrive from peers, and a sequence built against
// the pivot rule would otherwise make every Localize on the receiving slave
// quadratic; past the cap the remaining range is sorted instead, bounding
// the whole call by O(n log n). It returns the number of partition passes
// it ran, which the tests hold against the cap.
//
// NaNs compare false both ways: selectNth still terminates and stays in
// bounds on them, but which value lands at k is then unspecified (ingest
// rejects non-finite samples before they reach a ring).
func selectNth(a []float64, k int) (passes int) {
	lo, hi := 0, len(a) // the k-th smallest is always within a[lo:hi]
	for limit := 2 * bits.Len(uint(len(a))); hi-lo > selectCutoff; passes++ {
		if passes == limit {
			sort.Float64s(a[lo:hi])
			return passes
		}
		p, q := partition(a, lo, hi)
		switch {
		case k < p:
			hi = p
		case k >= q:
			lo = q
		default:
			return passes + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return passes
}

// partition splits a[lo:hi] (at least three elements) around the median of
// its first, middle and last element and returns where the pivot's copies
// ended up: a[lo:p] holds only smaller values, a[p:q] (never empty) only
// copies of the pivot, a[q:hi] nothing smaller. When lo > 0, a[lo-1] must
// not exceed anything in the range, which holds for every range selectNth
// reaches by moving lo up to a previous q.
//
// A pass normally places one copy of the pivot. If the pivot is no larger
// than a[lo-1] it is the minimum of the range, and the pass gathers all its
// copies instead, so runs of duplicates — quantised metrics, zero prediction
// errors — cost two passes rather than one pass per copy.
func partition(a []float64, lo, hi int) (p, q int) {
	mid, last := lo+(hi-lo)/2, hi-1
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[last] < a[mid] {
		a[last], a[mid] = a[mid], a[last]
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	a[mid], a[lo] = a[lo], a[mid]
	pivot := a[lo]
	if lo > 0 && !(a[lo-1] < pivot) {
		return lo, lo + split(a[lo:hi], pivot, false)
	}
	p = lo + split(a[lo+1:hi], pivot, true)
	a[lo], a[p] = a[p], a[lo]
	return p, p + 1
}

// split moves the values of s that are below pivot (below), or not above it
// (!below), to the front and returns how many there are. Every element is
// swapped whatever the comparison says and the comparison only feeds an
// addition, so the loop has no data-dependent branch: on noisy samples a
// compare-and-branch partition mispredicts every other element and takes
// three times as long.
func split(s []float64, pivot float64, below bool) int {
	n := 0
	for i, v := range s {
		s[i] = s[n]
		s[n] = v
		front := v < pivot
		if !below {
			front = !(pivot < v)
		}
		// Written as a conditional assignment of a constant so that the
		// compiler emits a flag-to-register move; `if front { n++ }` is
		// compiled to a branch.
		step := 0
		if front {
			step = 1
		}
		n += step
	}
	return n
}
