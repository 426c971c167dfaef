package core

// The replication wire format: a little-endian binary encoding of one
// ReplDelta, the body a replicate frame carries after its JSON header.
//
//	body       = format component full base samples sanitizers
//	format     = u8 2
//	component  = string
//	full       = uvarint n (0 or 6), n × (string metric, opt model, opt varint last_t, runs samples, runs errs)
//	base       = uvarint n (≤ 6), n × (u8 kind, varint t)
//	samples    = uvarint n (≤ 6), n × (u8 kind, runs)
//	sanitizers = uvarint n (≤ 6), n × (u8 kind, state)
//	runs       = uvarint n, n × (varint t0, uvarint len, len bytes of value bits)
//	model      = varint bins, f64 decay lo hi, bool range_set,
//	             uvarint n, n × u64 mask, uvarint n, n × f64 cells, uvarint n, n × f64 row_sums,
//	             varint last_bin, bool has_last, f64 inc_weight, varint observations
//	state      = uvarint n, f64 mean m2, varint last_out, f64 last_val, bool has_out,
//	             9 × uvarint stats (accepted … long_gaps, in ingest.Stats order)
//	string     = uvarint len, len bytes
//	opt x      = bool present, x if present
//	bool       = u8 0 or 1;  u64 = 8 bytes, little-endian;  f64 = u64 of IEEE-754 bits
//	kind       = index into metric.Kinds
//
// A full frame lists every metric by name in metric.Kinds order, with errs
// runs at its samples runs' times, and empty base and samples sections; an
// incremental frame lists every metric in samples. Sections are written in
// metric.Kinds order, fresh sanitizer states omitted, so one frame always
// encodes to the same bytes. A model is the predictor's own storage
// (markov.Snapshot): its mask, one cell per set bit and its row totals.
//
// Format 1 carried each occupied model row as bins dense counts; a peer of
// that version refuses this one's format byte, and this one refuses its,
// with ErrReplGap. The format byte is not one a JSON text can begin with:
// a peer of an older version still, whose replicate frames were a single
// JSON line, reads a body as its next frame, fails to parse it and drops
// the connection, so it never applies part of a frame.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fchain/internal/ingest"
	"fchain/internal/markov"
	"fchain/internal/metric"
)

// replFormat opens every replication body.
const replFormat byte = 2

// AppendBinary appends d's wire encoding to b, implementing
// encoding.BinaryAppender. Nothing is checked or dropped, so a malformed
// frame encodes to a body that fails as it would have in memory. It never
// returns an error. A keyed section lists at most six entries, so its count
// is one byte, counted up as the entries are written.
func (d *ReplDelta) AppendBinary(b []byte) ([]byte, error) {
	b = appendString(append(b, replFormat), d.Component)
	if d.Full {
		b = append(b, metric.NumKinds)
		for i, k := range metric.Kinds {
			s := &d.Metrics[i]
			if b = appendBool(appendString(b, k.String()), s.Model != nil); s.Model != nil {
				b = appendModel(b, s.Model)
			}
			if b = appendBool(b, s.HasLast); s.HasLast {
				b = binary.AppendVarint(b, s.LastT)
			}
			b = appendRunsBinary(appendRunsBinary(b, s.Runs, false), s.Runs, true)
		}
		b = append(b, 0, 0) // no base, no samples
	} else {
		base := len(b) + 1
		b = append(b, 0, 0) // no full state, and the base count
		for i := range d.Metrics {
			if s := &d.Metrics[i]; s.HasLast {
				b = binary.AppendVarint(append(b, byte(i)), s.LastT)
				b[base]++
			}
		}
		b = append(b, metric.NumKinds)
		for i := range d.Metrics {
			b = appendRunsBinary(append(b, byte(i)), d.Metrics[i].Runs, false)
		}
	}
	sanitizers := len(b)
	b = append(b, 0)
	for i := range d.Metrics {
		if s := &d.Metrics[i]; s.Sanitizer != (ingest.State{}) {
			b = appendState(append(b, byte(i)), s.Sanitizer)
			b[sanitizers]++
		}
	}
	return b, nil
}

// DecodeDelta decodes one replication body into d, replacing its contents
// but reusing its runs slices, so a standby that decodes every frame of a
// connection into one ReplDelta allocates nothing for a steady incremental
// frame. The decoded runs alias raw, which the caller must not modify while
// d is in use. Keyed sections may list their metrics in any order, and an
// incremental frame's samples may leave some out. A body this version
// cannot decode or a ReplDelta cannot hold — truncated, with trailing
// bytes, a count larger than the bytes left, a full frame that does not
// list the metrics in order with error runs at its sample times or that
// carries incremental sections, or a previous version's JSON payload — is
// refused with ErrReplGap like any other frame the shadow cannot apply.
func DecodeDelta(raw []byte, d *ReplDelta) error {
	r := &wireReader{b: raw}
	if f := r.u8(); r.err == nil && f != replFormat {
		r.fail("format %d, want %d", f, replFormat)
	}
	d.Component = r.string(d.Component)
	for i := range d.Metrics {
		s := &d.Metrics[i]
		s.Model, s.LastT, s.HasLast, s.Runs, s.Sanitizer = nil, 0, false, s.Runs[:0], ingest.State{}
	}
	switch n := r.count(metric.NumKinds, 5); n {
	case 0:
		d.Full = false
	case metric.NumKinds:
		d.Full = true
		for i, k := range metric.Kinds {
			d.Metrics[i].decodeFull(r, k)
		}
	default:
		r.fail("full frame lists %d metrics, want %d", n, metric.NumKinds)
	}
	r.section(d, true, 1, func(s *ReplMetric) { s.LastT, s.HasLast = r.varint(), true })
	r.section(d, true, 1, func(s *ReplMetric) { s.Runs = r.runs(s.Runs) })
	r.section(d, false, 36, func(s *ReplMetric) { s.Sanitizer = r.state() })
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		*d = ReplDelta{}
		return fmt.Errorf("%w: undecodable frame: %v", ErrReplGap, r.err)
	}
	return nil
}

// decodeFull reads metric k's entry of a full frame into s.
func (s *ReplMetric) decodeFull(r *wireReader, k metric.Kind) {
	if name := r.take(r.count(math.MaxInt, 1)); r.err == nil && string(name) != k.String() {
		r.fail("full frame entry %q, want %q", name, k)
	}
	if r.bool() {
		s.Model = r.model()
	}
	if s.HasLast = r.bool(); s.HasLast {
		s.LastT = r.varint()
	}
	s.Runs = r.runs(s.Runs)
	if n := r.count(math.MaxInt, 2); r.err == nil && n != len(s.Runs) {
		r.fail("%s: %d error runs for %d sample runs", k, n, len(s.Runs))
		return
	}
	for i := range s.Runs {
		run := &s.Runs[i]
		t0, e := r.varint(), r.take(r.count(math.MaxInt, 1))
		if r.err == nil && (t0 != run.T0 || len(e) != len(run.V)) {
			r.fail("%s: error ring times differ from its sample times", k)
		}
		run.E = e
	}
}

// section reads one keyed section of d whose values take at least minSize
// bytes each, handing each listed kind's slot to dec. A kind index out of
// range or repeated is refused, and so is an incremental section's entry in
// a full frame.
func (r *wireReader) section(d *ReplDelta, incremental bool, minSize int, dec func(*ReplMetric)) {
	n := r.count(metric.NumKinds, 1+minSize)
	if incremental && d.Full && n > 0 {
		r.fail("full frame carries incremental samples")
		return
	}
	var seen [metric.NumKinds]bool
	for range n {
		i := int(r.u8())
		switch {
		case r.err != nil:
			return
		case i >= metric.NumKinds:
			r.fail("metric index %d out of range", i)
			return
		case seen[i]:
			r.fail("%s appears twice", metric.Kinds[i])
			return
		}
		seen[i] = true
		dec(&d.Metrics[i])
	}
}

// appendRunsBinary appends runs, with each run's error bits in place of its
// value bits when errs is set.
func appendRunsBinary(b []byte, runs []ReplRun, errs bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(runs)))
	for i := range runs {
		bits := runs[i].V
		if errs {
			bits = runs[i].E
		}
		b = binary.AppendVarint(b, runs[i].T0)
		b = binary.AppendUvarint(b, uint64(len(bits)))
		b = append(b, bits...)
	}
	return b
}

func appendModel(b []byte, s *markov.Snapshot) []byte {
	b = binary.AppendVarint(b, int64(s.Bins))
	b = appendF64(b, s.Decay, s.Lo, s.Hi)
	b = appendBool(b, s.RangeSet)
	b = binary.AppendUvarint(b, uint64(len(s.Mask)))
	for _, m := range s.Mask {
		b = binary.LittleEndian.AppendUint64(b, m)
	}
	b = appendF64(binary.AppendUvarint(b, uint64(len(s.Cells))), s.Cells...)
	b = appendF64(binary.AppendUvarint(b, uint64(len(s.RowSums))), s.RowSums...)
	b = binary.AppendVarint(b, int64(s.LastBin))
	b = appendBool(b, s.HasLast)
	b = appendF64(b, s.IncWeight)
	return binary.AppendVarint(b, int64(s.Observations))
}

func appendState(b []byte, st ingest.State) []byte {
	b = binary.AppendUvarint(b, st.N)
	b = appendF64(b, st.Mean, st.M2)
	b = binary.AppendVarint(b, st.LastOut)
	b = appendF64(b, st.LastVal)
	b = appendBool(b, st.HasOut)
	s := &st.Stats
	for _, c := range [...]uint64{s.Accepted, s.DroppedInvalid, s.DroppedLate, s.Duplicates,
		s.Reordered, s.Clamped, s.Filled, s.GapSeconds, s.LongGaps} {
		b = binary.AppendUvarint(b, c)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// wireReader decodes a replication body. The first failure sticks: every
// later read returns a zero value, and err says what went wrong.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, capped so appending to them cannot reach
// past them.
func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("truncated: %d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) bool() bool {
	switch v := r.u8(); v {
	case 0, 1:
		return v == 1
	default:
		r.fail("bool byte %d", v)
		return false
	}
}

func (r *wireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a count of at most limit items, each at least minSize bytes
// long, refusing one the bytes left cannot hold before anything is
// allocated for it.
func (r *wireReader) count(limit, minSize int) int {
	n := r.uvarint()
	switch {
	case r.err != nil:
		return 0
	case n > uint64(limit):
		r.fail("count %d over %d", n, limit)
		return 0
	case n > uint64(len(r.b)/minSize):
		r.fail("count %d of %d-byte items, %d bytes left", n, minSize, len(r.b))
		return 0
	}
	return int(n)
}

// string reads a string, returning old when it reads the same bytes, so
// decoding one component's frames allocates no string.
func (r *wireReader) string(old string) string {
	if b := r.take(r.count(math.MaxInt, 1)); string(b) != old {
		return string(b)
	}
	return old
}

// f64s reads a count of at most limit floats, then the floats.
func (r *wireReader) f64s(limit int) []float64 {
	vs := make([]float64, r.count(limit, 8))
	for i := range vs {
		vs[i] = r.f64()
	}
	return vs
}

// runs reads one runs section into dst's storage; each run's values alias
// the body.
func (r *wireReader) runs(dst []ReplRun) []ReplRun {
	n := r.count(math.MaxInt, 2)
	runs := slices.Grow(dst[:0], n)[:n]
	for i := range runs {
		runs[i] = ReplRun{T0: r.varint(), V: r.take(r.count(math.MaxInt, 1))}
	}
	if r.err != nil {
		return runs[:0]
	}
	return runs
}

func (r *wireReader) model() *markov.Snapshot {
	const maxWords = markov.MaxBins * ((markov.MaxBins + 63) / 64)
	s := &markov.Snapshot{Bins: int(r.varint()), Decay: r.f64(), Lo: r.f64(), Hi: r.f64(), RangeSet: r.bool()}
	s.Mask = make([]uint64, r.count(maxWords, 8))
	for i := range s.Mask {
		s.Mask[i] = r.u64()
	}
	s.Cells = r.f64s(markov.MaxBins * markov.MaxBins)
	s.RowSums = r.f64s(markov.MaxBins)
	s.LastBin = int(r.varint())
	s.HasLast = r.bool()
	s.IncWeight = r.f64()
	s.Observations = int(r.varint())
	return s
}

func (r *wireReader) state() ingest.State {
	st := ingest.State{N: r.uvarint(), Mean: r.f64(), M2: r.f64(), LastOut: r.varint(),
		LastVal: r.f64(), HasOut: r.bool()}
	s := &st.Stats
	for _, c := range [...]*uint64{&s.Accepted, &s.DroppedInvalid, &s.DroppedLate, &s.Duplicates,
		&s.Reordered, &s.Clamped, &s.Filled, &s.GapSeconds, &s.LongGaps} {
		*c = r.uvarint()
	}
	return st
}
