package timeseries

import "sort"

// SortedWindow is an incrementally maintained multiset of float64 samples
// kept in ascending order. It exists for streaming selection: the context
// percentiles that batch analysis obtains by selecting on a fresh copy of
// the look-back context on every query are instead maintained
// sample-by-sample on the ingest path, so a query only interpolates into an
// already-sorted slice.
//
// The bit-equality contract with the batch path is structural: a sorted
// sequence is fully determined by the multiset of values it holds, so as
// long as Insert/Remove mirror exactly the samples entering and leaving the
// context region, Percentile returns the same bits PercentileScratch would
// have produced from scratch. Inserting into a dense slice costs a binary
// search plus a memmove — a few hundred nanoseconds at the window sizes
// FChain retains (~1.4k samples), paid on every sample where the batch path
// pays one O(n) selection per query.
//
// The zero value is ready to use. Not safe for concurrent use; callers
// guard it with the owning shard's lock. Values must not be NaN (both the
// strict and sanitizing ingest paths already reject non-finite samples).
type SortedWindow struct {
	vals []float64
}

// Len returns the number of retained values.
func (w *SortedWindow) Len() int { return len(w.vals) }

// Insert adds v, keeping the slice sorted.
func (w *SortedWindow) Insert(v float64) {
	i := sort.SearchFloat64s(w.vals, v)
	w.vals = append(w.vals, 0)
	copy(w.vals[i+1:], w.vals[i:])
	w.vals[i] = v
}

// Remove deletes one instance of v, reporting whether it was present.
func (w *SortedWindow) Remove(v float64) bool {
	i := sort.SearchFloat64s(w.vals, v)
	if i >= len(w.vals) || w.vals[i] != v {
		return false
	}
	copy(w.vals[i:], w.vals[i+1:])
	w.vals = w.vals[:len(w.vals)-1]
	return true
}

// Reset discards all values, keeping the backing storage.
func (w *SortedWindow) Reset() { w.vals = w.vals[:0] }

// Percentile returns the p-th percentile of the retained values using the
// same linear interpolation as PercentileScratch; given the same multiset
// of values the two are bit-identical. It returns ErrEmpty when no values
// are retained.
func (w *SortedWindow) Percentile(p float64) (float64, error) {
	return SortedPercentile(w.vals, p)
}

// Max returns the largest retained value; ok is false when empty. Because
// the maximum of a multiset does not depend on visit order, it is
// bit-identical to what a MinMax scan over the same values reports.
func (w *SortedWindow) Max() (float64, bool) {
	if len(w.vals) == 0 {
		return 0, false
	}
	return w.vals[len(w.vals)-1], true
}

// Bytes reports the approximate heap memory retained by the window.
func (w *SortedWindow) Bytes() int64 { return int64(cap(w.vals)) * 8 }

// SortedPercentile interpolates the p-th percentile of an ascending-sorted
// slice — PercentileScratch minus the selection. It is the query half of the
// SortedWindow contract and shares closestRank/interpolate with
// PercentileScratch, so the two cannot drift apart.
func SortedPercentile(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	lo, frac := closestRank(len(sorted), p)
	return interpolate(sorted, lo, frac), nil
}
