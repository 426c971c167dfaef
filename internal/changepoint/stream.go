package changepoint

import "math"

// Stream maintains change-point statistics over a metric stream with O(1)
// amortized work per sample — the Hunter-style incremental counterpart of
// the batch detector. Every Push updates:
//
//   - a Welford mean/variance over the whole stream since the last Reset
//     (the long-run "normal level" estimate);
//   - windowed sum and sum-of-squares over the last `window` samples;
//   - exact sliding-window min/max via monotonic deques;
//   - exact sliding-window extrema of the reference CUSUM
//     s_j = Σ_{i≤j} (v_i − μref), the textbook streaming CUSUM against a
//     frozen reference mean, also via monotonic deques.
//
// μref is frozen the first time the window fills (and re-frozen by Rebase),
// because a mean that moved with every sample would invalidate previously
// enqueued CUSUM values — the fixed-reference form is what makes the
// extrema maintainable in O(1) rather than O(window) per sample.
//
// Stream is the per-sample half of streaming selection: the shard updates
// one per metric on every Observe, exposing the warm-state statistics that
// /metrics and StreamingStats report and giving the differential tests an
// incremental CUSUM to pit against the batch scan. The selection kernel's
// verdict bits never depend on it — streaming and batch mode run the same
// kernel arithmetic, while the accumulator's floating point (windowed sums
// maintained by subtraction) is only telemetry-grade.
//
// The zero value is unusable; construct with NewStream. Not safe for
// concurrent use.
type Stream struct {
	window int

	// Whole-stream Welford.
	count int64
	mean  float64
	m2    float64

	// Window ring of raw values.
	ring []float64
	head int
	n    int

	// Windowed moments, maintained by add/subtract.
	winSum   float64
	winSumSq float64

	// Reference CUSUM state.
	idx     int64 // global index of the last pushed sample (1-based)
	ref     float64
	refSet  bool
	cusum   float64 // s_idx against ref
	csMax   deque   // (j, s_j) decreasing s
	csMin   deque   // (j, s_j) increasing s
	valMax  deque   // (j, v_j) decreasing v
	valMin  deque   // (j, v_j) increasing v
	rebases int
}

// deque is a monotonic index/value deque over the sliding window.
type deque struct {
	idx  []int64
	vals []float64
}

func (d *deque) reset() {
	d.idx = d.idx[:0]
	d.vals = d.vals[:0]
}

// push appends (j, v), first popping entries the new value dominates.
// better(a, b) reports whether a should outlive b (e.g. a >= b for a
// max-deque).
func (d *deque) push(j int64, v float64, better func(a, b float64) bool) {
	for len(d.vals) > 0 && better(v, d.vals[len(d.vals)-1]) {
		d.idx = d.idx[:len(d.idx)-1]
		d.vals = d.vals[:len(d.vals)-1]
	}
	d.idx = append(d.idx, j)
	d.vals = append(d.vals, v)
}

// expire drops front entries with index <= cutoff. Slicing off the front
// keeps it O(1) per dropped entry; append's occasional reallocation copies
// at most the live window, so pushes stay amortized O(1).
func (d *deque) expire(cutoff int64) {
	for len(d.idx) > 0 && d.idx[0] <= cutoff {
		d.idx = d.idx[1:]
		d.vals = d.vals[1:]
	}
}

func (d *deque) front() (float64, bool) {
	if len(d.vals) == 0 {
		return 0, false
	}
	return d.vals[0], true
}

func geq(a, b float64) bool { return a >= b }
func leq(a, b float64) bool { return a <= b }

// NewStream returns a stream tracking the last `window` samples (window < 2
// is raised to 2).
func NewStream(window int) *Stream {
	if window < 2 {
		window = 2
	}
	return &Stream{window: window, ring: make([]float64, window)}
}

// Window returns the configured window length.
func (s *Stream) Window() int { return s.window }

// Count returns the number of samples pushed since the last Reset.
func (s *Stream) Count() int64 { return s.count }

// Push consumes the next sample in O(1) amortized time.
func (s *Stream) Push(v float64) {
	// Whole-stream Welford.
	s.count++
	d := v - s.mean
	s.mean += d / float64(s.count)
	s.m2 += d * (v - s.mean)

	// Window ring + moments.
	if s.n == s.window {
		old := s.ring[s.head]
		s.winSum -= old
		s.winSumSq -= old * old
		s.head = (s.head + 1) % s.window
		s.n--
	}
	s.ring[(s.head+s.n)%s.window] = v
	s.n++
	s.winSum += v
	s.winSumSq += v * v

	s.idx++
	cutoff := s.idx - int64(s.window)
	s.valMax.push(s.idx, v, geq)
	s.valMin.push(s.idx, v, leq)
	s.valMax.expire(cutoff)
	s.valMin.expire(cutoff)

	// Freeze the reference the first time the window fills; until then the
	// CUSUM deques idle (their extrema would mix pre-reference samples).
	if !s.refSet {
		if s.n == s.window {
			s.ref = s.mean
			s.refSet = true
			s.cusum = 0
			s.csMax.reset()
			s.csMin.reset()
		}
		return
	}
	s.cusum += v - s.ref
	s.csMax.push(s.idx, s.cusum, geq)
	s.csMin.push(s.idx, s.cusum, leq)
	s.csMax.expire(cutoff)
	s.csMin.expire(cutoff)
}

// Rebase re-freezes the CUSUM reference at the current whole-stream mean
// and restarts the reference CUSUM. Long-lived streams call it when the
// workload's normal level drifts far from the frozen reference.
func (s *Stream) Rebase() {
	s.ref = s.mean
	s.refSet = s.n == s.window
	s.cusum = 0
	s.csMax.reset()
	s.csMin.reset()
	s.rebases++
}

// Reset discards all state, keeping the allocated buffers.
func (s *Stream) Reset() {
	s.count, s.mean, s.m2 = 0, 0, 0
	s.head, s.n = 0, 0
	s.winSum, s.winSumSq = 0, 0
	s.idx, s.cusum, s.ref = 0, 0, 0
	s.refSet = false
	s.csMax.reset()
	s.csMin.reset()
	s.valMax.reset()
	s.valMin.reset()
}

// Mean returns the whole-stream running mean.
func (s *Stream) Mean() float64 { return s.mean }

// Std returns the whole-stream running population standard deviation.
func (s *Stream) Std() float64 {
	if s.count == 0 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.count))
}

// WindowLen returns how many samples currently sit in the window.
func (s *Stream) WindowLen() int { return s.n }

// WindowStd returns the population standard deviation over the window.
func (s *Stream) WindowStd() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.winSum / float64(s.n)
	v := s.winSumSq/float64(s.n) - m*m
	if v < 0 { // subtraction rounding on near-constant streams
		v = 0
	}
	return math.Sqrt(v)
}

// WindowMinMax returns the exact min and max over the current window.
func (s *Stream) WindowMinMax() (lo, hi float64, ok bool) {
	lo, okLo := s.valMin.front()
	hi, okHi := s.valMax.front()
	return lo, hi, okLo && okHi
}

// CusumRange returns the range (max − min) of the reference CUSUM over the
// current window, and whether the reference has been frozen yet. It is the
// streaming analogue of the batch detector's maxS − minS statistic.
func (s *Stream) CusumRange() (float64, bool) {
	if !s.refSet {
		return 0, false
	}
	hi, okHi := s.csMax.front()
	lo, okLo := s.csMin.front()
	if !okHi || !okLo {
		return 0, false
	}
	return hi - lo, true
}

// Confidence ranks the current CUSUM range against the precomputed null
// table for the window length (tables.go), returning the same
// fraction-below score the batch detector computes for a segment. k is the
// table's resample count (e.g. Config.Thresholds).
func (s *Stream) Confidence(k int) (float64, bool) {
	r, ok := s.CusumRange()
	if !ok || s.n < s.window || k <= 0 {
		return 0, false
	}
	return rankConfidence(r, s.WindowStd(), s.n, nullTable(s.n, k)), true
}

// Bytes reports the approximate heap memory retained by the stream.
func (s *Stream) Bytes() int64 {
	b := int64(cap(s.ring)) * 8
	for _, d := range []*deque{&s.csMax, &s.csMin, &s.valMax, &s.valMin} {
		b += int64(cap(d.idx))*8 + int64(cap(d.vals))*8
	}
	return b
}
