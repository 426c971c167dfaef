package timeseries

import (
	"encoding/binary"
	"math"
	"slices"
)

// Ring is a fixed-capacity ring buffer of timestamped samples used by the
// FChain slave daemon to retain a bounded history of each metric. The slave
// only ever needs the look-back window [tv-W, tv] plus the burst-extraction
// margin, so the ring is bounded (paper §III-G reports ~3 MB per host for
// all VMs and metrics), and it stores 8 bytes per retained sample: the
// values in a circular array, the timestamps as runs of consecutive
// seconds. Every sample the slave retains arrives through the ingest
// sanitizer, which fills short gaps and severs long ones with Clear, so a
// slave's ring holds one run; a gap pushed through the strict path opens
// another.
//
// The zero value is not usable; construct with NewRing or NewRings.
type Ring struct {
	vals []float64
	runs []run // retained timestamps, oldest run first
	head int   // index of oldest element
	size int
	seq  uint64 // bumped on every mutation; see Seq
}

// run is n retained samples with consecutive timestamps t0, t0+1, ….
type run struct {
	t0 int64
	n  int
}

// NewRing returns a ring holding at most capacity samples. Capacities < 1
// are raised to 1.
func NewRing(capacity int) *Ring { return &NewRings(1, capacity)[0] }

// NewRings returns n rings of one capacity laid over a single backing array,
// each ring's values a capped slice of it, so no ring can grow into its
// neighbour. A monitor's rings live exactly as long as the monitor, and one
// array rounds up to the allocator's size classes once instead of once per
// ring: at 1,440 samples a ring alone takes 12,288 bytes for its 11,520.
// Capacities < 1 are raised to 1.
func NewRings(n, capacity int) []Ring {
	capacity = max(capacity, 1)
	vals := make([]float64, n*capacity)
	rings := make([]Ring, n)
	for i := range rings {
		rings[i].vals = vals[i*capacity : (i+1)*capacity : (i+1)*capacity]
	}
	return rings
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.vals) }

// Len returns the number of retained samples.
func (r *Ring) Len() int { return r.size }

// Seq returns the ring's mutation sequence number: it advances on every
// Push and Clear, so two reads observing the same Seq are guaranteed to
// have seen identical contents. Streaming selection keys its memoized
// per-window results on it to detect when a cached result is still exact.
func (r *Ring) Seq() uint64 { return r.seq }

// At returns the i-th retained sample, oldest first. It panics if i is out
// of [0, Len()), matching slice-indexing semantics. Finding the timestamp
// walks the runs; callers that need only the value use Value.
func (r *Ring) At(i int) (t int64, v float64) {
	v = r.Value(i)
	for _, ru := range r.runs {
		if i < ru.n {
			return ru.t0 + int64(i), v
		}
		i -= ru.n
	}
	panic("timeseries: ring runs do not cover its samples")
}

// AppendStretch appends to b the IEEE-754 bits, 8 little-endian bytes
// each, of the retained samples from the i-th to the end of its stretch of
// consecutive timestamps, copied out of the backing array as unwrap does,
// and returns the stretch's first timestamp and length. It has At's bounds
// contract.
func (r *Ring) AppendStretch(b []byte, i int) (_ []byte, t0 int64, n int) {
	if i < 0 || i >= r.size {
		panic("timeseries: ring index out of range")
	}
	j := i
	for _, ru := range r.runs {
		if j < ru.n {
			n = ru.n - j
			start := r.slot(i)
			head := min(n, len(r.vals)-start)
			b = slices.Grow(b, 8*n)
			for _, vs := range [...][]float64{r.vals[start : start+head], r.vals[:n-head]} {
				for _, v := range vs {
					b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
				}
			}
			return b, ru.t0 + int64(j), n
		}
		j -= ru.n
	}
	panic("timeseries: ring runs do not cover its samples")
}

// Value returns the value of the i-th retained sample, oldest first, with
// At's bounds contract.
func (r *Ring) Value(i int) float64 {
	if i < 0 || i >= r.size {
		panic("timeseries: ring index out of range")
	}
	return r.vals[r.slot(i)]
}

// slot returns the backing index of the i-th value, oldest first, for
// 0 ≤ i ≤ Len(); head+i stays below twice the capacity.
func (r *Ring) slot(i int) int {
	if i += r.head; i >= len(r.vals) {
		i -= len(r.vals)
	}
	return i
}

// First returns the oldest retained timestamp. It panics on an empty ring,
// as At(0) does.
func (r *Ring) First() int64 {
	if r.size == 0 {
		panic("timeseries: ring index out of range")
	}
	return r.runs[0].t0
}

// Push appends a sample, evicting the oldest when full. A timestamp one past
// the newest extends the newest run; any other opens a new one.
func (r *Ring) Push(t int64, v float64) {
	r.seq++
	if r.size == len(r.vals) {
		r.evict()
	}
	r.vals[r.slot(r.size)] = v
	r.size++
	if last := len(r.runs) - 1; last >= 0 && t == r.runs[last].t0+int64(r.runs[last].n) {
		r.runs[last].n++
		return
	}
	r.runs = append(r.runs, run{t0: t, n: 1})
}

// evict drops the oldest sample, shrinking the oldest run and removing it
// once empty. The copy keeps the runs at the front of their backing array,
// so a ring whose run count stays bounded stops allocating.
func (r *Ring) evict() {
	r.head = r.slot(1)
	r.size--
	oldest := &r.runs[0]
	oldest.t0++
	if oldest.n--; oldest.n == 0 {
		r.runs = append(r.runs[:0], r.runs[1:]...)
	}
}

// Last returns the most recent sample, or ok=false when empty.
func (r *Ring) Last() (t int64, v float64, ok bool) {
	if r.size == 0 {
		return 0, 0, false
	}
	newest := r.runs[len(r.runs)-1]
	return newest.t0 + int64(newest.n-1), r.Value(r.size - 1), true
}

// Series materializes the retained samples, oldest first, as a Series
// starting at the oldest retained timestamp. Gaps in timestamps are not
// reconstructed; the ingest sanitizer keeps retained samples contiguous
// (short gaps filled, long gaps severed by Clear).
func (r *Ring) Series() *Series {
	if r.size == 0 {
		return &Series{}
	}
	vals := make([]float64, r.size)
	unwrap(vals, r.vals, r.head)
	return &Series{start: r.First(), vals: vals}
}

// unwrap copies a ring's retained values, oldest first, out of its backing
// array into dst, whose length is the ring's size: the run from head to the
// end of the array, then the wrapped-around run before head. A ring that is
// not yet full has head 0 and its values in buf[:len(dst)], which the first
// copy alone covers.
func unwrap(dst, buf []float64, head int) {
	n := copy(dst, buf[head:])
	copy(dst[n:], buf[:head])
}

// SeriesInto materializes the retained samples like Series but reuses dst's
// backing storage, growing it only when the ring holds more samples than
// dst's capacity. It is the allocation-free primitive behind the hot
// localize path; the returned series is dst, and any previously returned
// views into dst are invalidated.
func (r *Ring) SeriesInto(dst *Series) *Series {
	if dst == nil {
		return r.Series()
	}
	if r.size == 0 {
		dst.start = 0
		dst.vals = dst.vals[:0]
		return dst
	}
	if cap(dst.vals) < r.size {
		dst.vals = make([]float64, r.size)
	}
	dst.vals = dst.vals[:r.size]
	unwrap(dst.vals, r.vals, r.head)
	dst.start = r.First()
	return dst
}

// Clear discards every retained sample. The slave severs a metric's dense
// history this way after a long collection gap: the pre-gap samples would
// otherwise be misaligned with the post-gap dense indexing.
func (r *Ring) Clear() {
	r.seq++
	r.runs = r.runs[:0]
	r.head = 0
	r.size = 0
}
