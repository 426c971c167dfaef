// Package ingest implements FChain's resilient metric-ingestion layer: a
// per-(component, metric) sanitizer that sits in front of the online
// Markov model and turns a dirty real-world monitoring stream into the
// clean, dense, time-ordered 1 Hz stream the analysis pipeline assumes.
//
// Real cloud metric streams are incomplete and noisy — collectors restart,
// UDP exports drop or reorder samples, broken agents emit NaN or absurd
// magnitudes, and clocks jump. FChain's abnormality test rests entirely on
// the learned normal-fluctuation model, so feeding it corrupted data does
// not merely degrade accuracy: it teaches the model wrong transitions and
// shifts ring indices so that analysis windows silently cover the wrong
// seconds. The sanitizer therefore
//
//   - rejects non-finite (NaN/±Inf) values;
//   - clamps magnitude outliers far beyond anything the stream has shown
//     (guarding against corrupted exports without suppressing genuine
//     fault signatures, which stay well inside the generous bound);
//   - buffers and reorders slightly out-of-order samples within a bounded
//     reorder window, dropping samples that arrive later than that;
//   - deduplicates repeated timestamps;
//   - detects dropped-sample gaps, fills short gaps by linear
//     interpolation, and marks long gaps as missing so downstream stages
//     skip them instead of hallucinating over a dense-index misalignment.
//
// Every decision is counted in Stats, which downstream propagates into
// per-component data-quality annotations on localization results.
package ingest

import (
	"fmt"
	"math"
	"sort"
)

// Default sanitizer parameters.
const (
	// DefaultReorderWindow is how many seconds a sample may arrive out of
	// order and still be reinserted at its true position.
	DefaultReorderWindow = 5
	// DefaultMaxFillGap is the largest dropped-sample gap (seconds) that is
	// repaired by interpolation; longer gaps are marked missing.
	DefaultMaxFillGap = 10
	// DefaultClampSigma bounds accepted values to within this many standard
	// deviations of the stream's running mean. It is deliberately generous:
	// fault manifestations (the signal FChain exists to detect) must pass
	// untouched, while corrupted exports (1e18 spikes) must not reach the
	// model.
	DefaultClampSigma = 16
	// DefaultClampMinSamples is how many samples the running statistics
	// need before clamping engages.
	DefaultClampMinSamples = 64
)

// Config controls one sanitizer.
type Config struct {
	// ReorderWindow is the out-of-order tolerance in seconds (default 5).
	// Zero keeps the default; negative disables reordering (samples must
	// arrive in order or are dropped).
	ReorderWindow int
	// MaxFillGap is the largest gap (missing seconds) repaired by linear
	// interpolation (default 10). Longer gaps are marked missing.
	MaxFillGap int
	// ClampSigma bounds values to mean ± ClampSigma·std of the stream's
	// running statistics (default 16). Negative disables clamping.
	ClampSigma float64
	// ClampMinSamples is the number of observations required before the
	// clamp engages (default 64).
	ClampMinSamples int
}

func (c Config) withDefaults() Config {
	if c.ReorderWindow == 0 {
		c.ReorderWindow = DefaultReorderWindow
	}
	if c.ReorderWindow < 0 {
		c.ReorderWindow = 0
	}
	if c.MaxFillGap == 0 {
		c.MaxFillGap = DefaultMaxFillGap
	}
	if c.MaxFillGap < 0 {
		c.MaxFillGap = 0
	}
	if c.ClampSigma == 0 {
		c.ClampSigma = DefaultClampSigma
	}
	if c.ClampMinSamples <= 0 {
		c.ClampMinSamples = DefaultClampMinSamples
	}
	return c
}

// Sample is one sanitized sample released by the sanitizer.
type Sample struct {
	T int64
	V float64
	// Filled marks a sample synthesized by short-gap interpolation rather
	// than observed.
	Filled bool
	// GapBefore, when positive, is the length (seconds) of an unfilled gap
	// immediately preceding this sample: the stream was missing for that
	// long and downstream must treat the region as unknown rather than
	// contiguous.
	GapBefore int64
}

// Stats counts every data-quality decision a sanitizer has made. All
// counters are cumulative over the stream's lifetime.
type Stats struct {
	// Accepted counts samples admitted into the stream (including clamped
	// and reordered ones).
	Accepted uint64 `json:"accepted,omitempty"`
	// DroppedInvalid counts rejected NaN/±Inf values.
	DroppedInvalid uint64 `json:"dropped_invalid,omitempty"`
	// DroppedLate counts samples that arrived beyond the reorder window
	// (their position had already been released).
	DroppedLate uint64 `json:"dropped_late,omitempty"`
	// Duplicates counts samples dropped for repeating an already-seen
	// timestamp.
	Duplicates uint64 `json:"duplicates,omitempty"`
	// Reordered counts samples that arrived out of order but within the
	// reorder window and were reinserted at their true position.
	Reordered uint64 `json:"reordered,omitempty"`
	// Clamped counts samples whose magnitude was clamped to the plausible
	// bound.
	Clamped uint64 `json:"clamped,omitempty"`
	// Filled counts samples synthesized by short-gap interpolation.
	Filled uint64 `json:"filled,omitempty"`
	// GapSeconds accumulates the lengths of long (unfilled) gaps.
	GapSeconds uint64 `json:"gap_seconds,omitempty"`
	// LongGaps counts the long gaps themselves.
	LongGaps uint64 `json:"long_gaps,omitempty"`
}

// Dropped returns the total number of samples the sanitizer discarded.
func (s Stats) Dropped() uint64 {
	return s.DroppedInvalid + s.DroppedLate + s.Duplicates
}

// Merge accumulates other into s.
func (s *Stats) Merge(other Stats) {
	s.Accepted += other.Accepted
	s.DroppedInvalid += other.DroppedInvalid
	s.DroppedLate += other.DroppedLate
	s.Duplicates += other.Duplicates
	s.Reordered += other.Reordered
	s.Clamped += other.Clamped
	s.Filled += other.Filled
	s.GapSeconds += other.GapSeconds
	s.LongGaps += other.LongGaps
}

// Score condenses the counters into a confidence score in [0, 1]: the
// fraction of the stream that was clean. 1 means pristine; every dropped,
// clamped, synthesized, or missing second lowers it.
func (s Stats) Score() float64 {
	clean := float64(s.Accepted) - float64(s.Clamped)
	if clean < 0 {
		clean = 0
	}
	dirty := float64(s.Dropped() + s.Clamped + s.Filled + s.GapSeconds)
	total := clean + dirty
	if total == 0 {
		return 1
	}
	return clean / total
}

// String renders a compact human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf("quality=%.3f accepted=%d dropped=%d reordered=%d clamped=%d filled=%d gap_seconds=%d",
		s.Score(), s.Accepted, s.Dropped(), s.Reordered, s.Clamped, s.Filled, s.GapSeconds)
}

// Sanitizer cleans one metric stream. It is not safe for concurrent use;
// FChain runs one sanitizer per (component, metric) pair inside a single
// collection goroutine.
type Sanitizer struct {
	cfg Config

	pending []Sample // buffered samples, sorted by time
	maxSeen int64    // newest timestamp ever admitted to the buffer
	hasSeen bool

	lastOut int64 // timestamp of the last released sample
	lastVal float64
	hasOut  bool

	// Welford running statistics over accepted raw values, for clamping.
	n    uint64
	mean float64
	m2   float64

	stats Stats
}

// NewSanitizer returns a sanitizer with the given configuration (zero
// values take defaults).
func NewSanitizer(cfg Config) *Sanitizer {
	return &Sanitizer{cfg: cfg.withDefaults()}
}

// Stats returns the cumulative data-quality counters.
func (s *Sanitizer) Stats() Stats { return s.stats }

// State is the part of a sanitizer that outlives the samples it has already
// released: the running statistics the clamp judges the next value against,
// the last released sample that gap repair measures the next one from, and
// the quality counters. It travels with the model (checkpoint, replication)
// so a stream's new owner treats the next sample exactly as the old one
// would have. The reorder buffer is not part of it: samples still waiting
// there have not reached the model either.
type State struct {
	N       uint64  `json:"n,omitempty"`
	Mean    float64 `json:"mean,omitempty"`
	M2      float64 `json:"m2,omitempty"`
	LastOut int64   `json:"last_out,omitempty"`
	LastVal float64 `json:"last_val,omitempty"`
	HasOut  bool    `json:"has_out,omitempty"`
	Stats   Stats   `json:"stats,omitzero"`
}

// State returns the sanitizer's transferable state.
func (s *Sanitizer) State() State {
	return State{N: s.n, Mean: s.mean, M2: s.m2,
		LastOut: s.lastOut, LastVal: s.lastVal, HasOut: s.hasOut, Stats: s.stats}
}

// SetState replaces the sanitizer's transferable state with st.
func (s *Sanitizer) SetState(st State) {
	s.n, s.mean, s.m2 = st.N, st.Mean, st.M2
	s.lastOut, s.lastVal, s.hasOut = st.LastOut, st.LastVal, st.HasOut
	s.stats = st.Stats
}

// Push feeds one raw sample and returns the samples it releases, oldest
// first: every buffered sample older than the reorder window behind the
// newest timestamp seen, with short gaps filled and long gaps marked. It
// allocates the slice it returns; AppendPush reuses the caller's.
func (s *Sanitizer) Push(t int64, v float64) []Sample {
	return s.AppendPush(nil, t, v)
}

// AppendPush is Push appending the released samples to dst, in the manner
// of strconv.AppendInt: dst[:len(dst)] is left as it was, and a caller that
// passes the previous result resliced to zero releases without allocating.
func (s *Sanitizer) AppendPush(dst []Sample, t int64, v float64) []Sample {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.stats.DroppedInvalid++
		return dst
	}
	if s.hasOut && t <= s.lastOut {
		// The stream has already been released past this timestamp.
		if t == s.lastOut {
			s.stats.Duplicates++
		} else {
			s.stats.DroppedLate++
		}
		return dst
	}
	v = s.clamp(v)
	if !s.insert(t, v) {
		return dst
	}
	s.observeValue(v)
	s.stats.Accepted++
	if s.hasSeen && t < s.maxSeen {
		s.stats.Reordered++
	}
	if !s.hasSeen || t > s.maxSeen {
		s.maxSeen, s.hasSeen = t, true
	}
	return s.AppendFlush(dst, s.maxSeen-int64(s.cfg.ReorderWindow))
}

// Flush releases every buffered sample with timestamp ≤ upTo regardless of
// the reorder window; FChain calls it with the violation time tv before
// analyzing, so the look-back window sees everything collected.
func (s *Sanitizer) Flush(upTo int64) []Sample {
	return s.AppendFlush(nil, upTo)
}

// AppendFlush is Flush appending the released samples to dst, as
// AppendPush does: it pops every pending sample with timestamp ≤ upTo,
// repairing or marking the gaps between consecutive released samples.
func (s *Sanitizer) AppendFlush(dst []Sample, upTo int64) []Sample {
	n := 0
	for n < len(s.pending) && s.pending[n].T <= upTo {
		n++
	}
	for _, smp := range s.pending[:n] {
		dst = s.emit(dst, smp)
	}
	copy(s.pending, s.pending[n:])
	s.pending = s.pending[:len(s.pending)-n]
	return dst
}

// clamp bounds v to the plausible range learned from the stream.
func (s *Sanitizer) clamp(v float64) float64 {
	if s.cfg.ClampSigma < 0 || s.n < uint64(s.cfg.ClampMinSamples) {
		return v
	}
	sd := math.Sqrt(s.m2 / float64(s.n))
	if sd == 0 || math.IsNaN(sd) {
		return v
	}
	lo := s.mean - s.cfg.ClampSigma*sd
	hi := s.mean + s.cfg.ClampSigma*sd
	switch {
	case v < lo:
		s.stats.Clamped++
		return lo
	case v > hi:
		s.stats.Clamped++
		return hi
	}
	return v
}

// observeValue updates the running statistics with an accepted value.
func (s *Sanitizer) observeValue(v float64) {
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// insert places (t, v) into the pending buffer in time order; duplicate
// buffered timestamps are dropped (first sample wins).
func (s *Sanitizer) insert(t int64, v float64) bool {
	i := sort.Search(len(s.pending), func(i int) bool { return s.pending[i].T >= t })
	if i < len(s.pending) && s.pending[i].T == t {
		s.stats.Duplicates++
		return false
	}
	s.pending = append(s.pending, Sample{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = Sample{T: t, V: v}
	return true
}

// emit appends smp to out, preceded by gap repair or a gap marker.
func (s *Sanitizer) emit(out []Sample, smp Sample) []Sample {
	if s.hasOut {
		gap := smp.T - s.lastOut - 1
		switch {
		case gap <= 0:
			// contiguous (insert guarantees strictly increasing times)
		case gap <= int64(s.cfg.MaxFillGap):
			// Short gap: linear interpolation between the bracketing
			// samples keeps the dense 1 Hz stream contiguous without
			// inventing dynamics.
			step := (smp.V - s.lastVal) / float64(gap+1)
			for i := int64(1); i <= gap; i++ {
				out = append(out, Sample{
					T:      s.lastOut + i,
					V:      s.lastVal + step*float64(i),
					Filled: true,
				})
				s.stats.Filled++
			}
		default:
			// Long gap: the stream is simply unknown here. Mark it so the
			// consumer can sever the dense history instead of pretending
			// the two sides are adjacent seconds.
			smp.GapBefore = gap
			s.stats.GapSeconds += uint64(gap)
			s.stats.LongGaps++
		}
	}
	s.lastOut, s.lastVal, s.hasOut = smp.T, smp.V, true
	return append(out, smp)
}
