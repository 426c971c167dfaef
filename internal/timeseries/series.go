// Package timeseries provides the fixed-interval time series containers and
// statistics used throughout FChain.
//
// Every FChain metric stream is sampled at a fixed interval (1 second in the
// paper), so a series is represented compactly as a start timestamp plus a
// dense slice of values. The package also provides the smoothing, slope, and
// trend primitives that the abnormal change point selection stage relies on.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned by statistics that are undefined on empty series.
var ErrEmpty = errors.New("timeseries: empty series")

// Series is a fixed-interval (1 sample per second) time series.
// The zero value is an empty series starting at time 0.
type Series struct {
	start int64 // timestamp (seconds) of vals[0]
	vals  []float64
}

// New returns a series beginning at start with the given values.
// The values slice is copied.
func New(start int64, values []float64) *Series {
	s := &Series{start: start, vals: make([]float64, len(values))}
	copy(s.vals, values)
	return s
}

// FromFunc builds a series of n samples starting at start, with the i-th
// value produced by f(i).
func FromFunc(start int64, n int, f func(i int) float64) *Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = f(i)
	}
	return &Series{start: start, vals: vals}
}

// Start returns the timestamp of the first sample.
func (s *Series) Start() int64 { return s.start }

// End returns the timestamp just past the last sample (start + len).
func (s *Series) End() int64 { return s.start + int64(len(s.vals)) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.vals) }

// At returns the i-th value. It panics if i is out of range, matching
// slice-indexing semantics.
func (s *Series) At(i int) float64 { return s.vals[i] }

// TimeAt returns the timestamp of the i-th sample.
func (s *Series) TimeAt(i int) int64 { return s.start + int64(i) }

// Append adds a value at the end of the series.
func (s *Series) Append(v float64) { s.vals = append(s.vals, v) }

// Values returns a copy of the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Window returns the sub-series covering timestamps [from, to). Timestamps
// outside the series are clamped. The returned series shares no storage with
// the receiver.
func (s *Series) Window(from, to int64) *Series {
	if from < s.start {
		from = s.start
	}
	if to > s.End() {
		to = s.End()
	}
	if to <= from {
		return &Series{start: from}
	}
	lo := int(from - s.start)
	hi := int(to - s.start)
	return New(from, s.vals[lo:hi])
}

// WindowView is Window without the copy: the returned sub-series shares the
// receiver's storage. It is the allocation-free variant used on the hot
// localize path; the view is invalidated by any mutation of the receiver
// (Append, or rematerialization of a reused backing series).
func (s *Series) WindowView(from, to int64) *Series {
	if from < s.start {
		from = s.start
	}
	if to > s.End() {
		to = s.End()
	}
	if to <= from {
		return &Series{start: from}
	}
	lo := int(from - s.start)
	hi := int(to - s.start)
	return &Series{start: from, vals: s.vals[lo:hi:hi]}
}

// ViewRange is WindowView returning the sub-series by value: hot paths that
// take many short-lived window views per call use it to keep the views on
// the stack instead of allocating a *Series each. The same aliasing and
// invalidation caveats as WindowView apply.
func (s *Series) ViewRange(from, to int64) Series {
	if from < s.start {
		from = s.start
	}
	if to > s.End() {
		to = s.End()
	}
	if to <= from {
		return Series{start: from}
	}
	lo := int(from - s.start)
	hi := int(to - s.start)
	return Series{start: from, vals: s.vals[lo:hi:hi]}
}

// ValuesView returns the sample values without copying. The caller must
// treat the slice as read-only; it aliases the series' storage.
func (s *Series) ValuesView() []float64 { return s.vals }

// String implements fmt.Stringer with a compact summary.
func (s *Series) String() string {
	return fmt.Sprintf("series[start=%d len=%d]", s.start, len(s.vals))
}

// Mean returns the arithmetic mean of the values.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Std returns the population standard deviation of the values.
func Std(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := Mean(vals)
	ss := 0.0
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals)))
}

// MinMax returns the smallest and largest values. It returns ErrEmpty for
// empty input.
func MinMax(vals []float64) (lo, hi float64, err error) {
	if len(vals) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}

// Smooth returns a centered moving average of vals with the given window
// width (an odd width is recommended; width <= 1 returns a copy). Edges use
// the available partial window, so the output has the same length as the
// input. FChain smooths raw monitoring data before change point detection to
// remove sampling noise (paper §II-B, following PAL).
func Smooth(vals []float64, width int) []float64 {
	return SmoothInto(nil, vals, width)
}

// SmoothInto is Smooth writing into dst, which is grown as needed and
// returned; passing a reused buffer makes repeated smoothing
// allocation-free. dst must not alias vals.
func SmoothInto(dst []float64, vals []float64, width int) []float64 {
	if cap(dst) < len(vals) {
		dst = make([]float64, len(vals))
	}
	out := dst[:len(vals)]
	if width <= 1 {
		copy(out, vals)
		return out
	}
	half := width / 2
	for i := range vals {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(vals) {
			hi = len(vals)
		}
		out[i] = Mean(vals[lo:hi])
	}
	return out
}

// SlopeAt estimates the tangent (first derivative per sample step) of vals at
// index i using a symmetric difference over a window of the given half-width.
// The window is clamped at the series edges. halfWidth < 1 is treated as 1.
func SlopeAt(vals []float64, i, halfWidth int) float64 {
	if len(vals) < 2 {
		return 0
	}
	if halfWidth < 1 {
		halfWidth = 1
	}
	lo := i - halfWidth
	if lo < 0 {
		lo = 0
	}
	hi := i + halfWidth
	if hi > len(vals)-1 {
		hi = len(vals) - 1
	}
	if hi == lo {
		return 0
	}
	return (vals[hi] - vals[lo]) / float64(hi-lo)
}

// Trend classifies the overall direction of a series window.
type Trend int

// Trend directions. FChain uses the shared trend of all components to
// recognize external factors: a common upward trend suggests a workload
// surge, a common downward trend suggests e.g. an external (NFS) outage
// (paper §II-C).
const (
	TrendFlat Trend = iota
	TrendUp
	TrendDown
)

// String returns "flat", "up", or "down".
func (t Trend) String() string {
	switch t {
	case TrendUp:
		return "up"
	case TrendDown:
		return "down"
	default:
		return "flat"
	}
}
