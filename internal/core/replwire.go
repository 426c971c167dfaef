package core

// The replication wire format: a little-endian binary encoding of one
// ReplDelta, the body a replicate frame carries after its JSON header.
//
//	body       = format component full base samples sanitizers
//	format     = u8 1
//	component  = string
//	full       = uvarint n (≤ 6), n × (string metric, opt model, opt varint last_t, runs samples, runs errs)
//	base       = uvarint n (≤ 6), n × (u8 kind, varint t)
//	samples    = uvarint n (≤ 6), n × (u8 kind, runs)
//	sanitizers = uvarint n (≤ 6), n × (u8 kind, state)
//	runs       = uvarint n, n × (varint t0, uvarint len, len bytes of value bits)
//	model      = varint bins, f64 decay lo hi, bool range_set,
//	             uvarint rows (≤ markov.MaxBins), rows × (uvarint n, n × f64),
//	             opt (uvarint n, n × f64) row_sums,
//	             varint last_bin, bool has_last, f64 inc_weight, varint observations
//	state      = uvarint n, f64 mean m2, varint last_out, f64 last_val, bool has_out,
//	             9 × uvarint stats (accepted … long_gaps, in ingest.Stats order)
//	string     = uvarint len, len bytes
//	opt x      = bool present, x if present
//	bool       = u8 0 or 1;  f64 = 8 bytes of IEEE-754 bits;  kind = index into metric.Kinds
//
// The map sections are written in metric.Kinds order, so one delta always
// encodes to the same bytes. The format byte is not one a JSON text can
// begin with: a peer of the previous version, whose replicate frames were a
// single JSON line, reads a body as its next frame, fails to parse it and
// drops the connection, so it never applies part of a frame.

import (
	"encoding/binary"
	"fmt"
	"math"

	"fchain/internal/ingest"
	"fchain/internal/markov"
	"fchain/internal/metric"
)

// replFormat opens every replication body.
const replFormat byte = 1

// AppendBinary appends d's wire encoding to b, implementing
// encoding.BinaryAppender. Map entries keyed by a name outside
// metric.Kinds, which ApplyDelta ignores, are not encoded; nothing else is
// dropped, so a malformed delta encodes to a body that fails as it would
// have in memory. It never returns an error.
func (d *ReplDelta) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, replFormat)
	b = appendString(b, d.Component)
	b = binary.AppendUvarint(b, uint64(len(d.Full)))
	for i := range d.Full {
		b = d.Full[i].appendBinary(b)
	}
	b = appendByKind(b, d.Base, binary.AppendVarint)
	b = appendByKind(b, d.Samples, appendRunsBinary)
	return appendByKind(b, d.Sanitizers, appendState), nil
}

// DecodeDelta decodes one replication body into d, replacing its contents.
// The decoded runs alias raw, which the caller must not modify while d is
// in use. A body this version cannot decode — truncated, with trailing
// bytes, a count larger than the bytes left, or a previous version's JSON
// payload — is refused with ErrReplGap like any other frame the shadow
// cannot apply.
func DecodeDelta(raw []byte, d *ReplDelta) error {
	*d = ReplDelta{}
	r := &wireReader{b: raw}
	if f := r.u8(); r.err == nil && f != replFormat {
		r.fail("format %d, want %d", f, replFormat)
	}
	d.Component = r.string()
	if n := r.count(metric.NumKinds, 5); n > 0 {
		d.Full = make([]ReplMetric, n)
		for i := range d.Full {
			d.Full[i].decode(r)
		}
	}
	d.Base = decodeByKind(r, 1, (*wireReader).varint)
	d.Samples = decodeByKind(r, 1, (*wireReader).runs)
	d.Sanitizers = decodeByKind(r, 36, (*wireReader).state)
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		*d = ReplDelta{}
		return fmt.Errorf("%w: undecodable frame: %v", ErrReplGap, r.err)
	}
	return nil
}

func (f *ReplMetric) appendBinary(b []byte) []byte {
	b = appendString(b, f.Metric)
	b = appendBool(b, f.Model != nil)
	if f.Model != nil {
		b = appendModel(b, f.Model)
	}
	b = appendBool(b, f.LastT != nil)
	if f.LastT != nil {
		b = binary.AppendVarint(b, *f.LastT)
	}
	b = appendRunsBinary(b, f.Samples)
	return appendRunsBinary(b, f.Errs)
}

func (f *ReplMetric) decode(r *wireReader) {
	f.Metric = r.string()
	if r.bool() {
		f.Model = r.model()
	}
	if r.bool() {
		last := r.varint()
		f.LastT = &last
	}
	f.Samples = r.runs()
	f.Errs = r.runs()
}

// appendByKind appends m's entries in metric.Kinds order, each as its kind's
// index followed by enc's encoding of the value.
func appendByKind[V any](b []byte, m map[string]V, enc func([]byte, V) []byte) []byte {
	n := 0
	for _, k := range metric.Kinds {
		if _, ok := m[k.String()]; ok {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i, k := range metric.Kinds {
		if v, ok := m[k.String()]; ok {
			b = enc(append(b, byte(i)), v)
		}
	}
	return b
}

// decodeByKind reads one appendByKind section whose values take at least
// minSize bytes each. An empty section decodes to nil; a kind index out of
// range or repeated is refused.
func decodeByKind[V any](r *wireReader, minSize int, dec func(*wireReader) V) map[string]V {
	n := r.count(metric.NumKinds, 1+minSize)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	for range n {
		i := int(r.u8())
		switch {
		case r.err != nil:
			return nil
		case i >= metric.NumKinds:
			r.fail("metric index %d out of range", i)
			return nil
		}
		name := metric.Kinds[i].String()
		if _, dup := m[name]; dup {
			r.fail("%s appears twice", name)
			return nil
		}
		m[name] = dec(r)
	}
	return m
}

func appendRunsBinary(b []byte, runs []ReplRun) []byte {
	b = binary.AppendUvarint(b, uint64(len(runs)))
	for i := range runs {
		b = binary.AppendVarint(b, runs[i].T0)
		b = binary.AppendUvarint(b, uint64(len(runs[i].V)))
		b = append(b, runs[i].V...)
	}
	return b
}

func appendModel(b []byte, s *markov.Snapshot) []byte {
	b = binary.AppendVarint(b, int64(s.Bins))
	b = appendF64(b, s.Decay, s.Lo, s.Hi)
	b = appendBool(b, s.RangeSet)
	b = binary.AppendUvarint(b, uint64(len(s.Counts)))
	for _, row := range s.Counts {
		b = binary.AppendUvarint(b, uint64(len(row)))
		b = appendF64(b, row...)
	}
	b = appendBool(b, s.RowSums != nil)
	if s.RowSums != nil {
		b = binary.AppendUvarint(b, uint64(len(s.RowSums)))
		b = appendF64(b, s.RowSums...)
	}
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

func (r *wireReader) f64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

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

func (r *wireReader) string() string {
	return string(r.take(r.count(math.MaxInt, 1)))
}

// f64s reads n floats, or nil when n is zero.
func (r *wireReader) f64s() []float64 {
	n := r.count(math.MaxInt, 8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.f64()
	}
	return vs
}

// runs reads one runs section; each run's values alias the body.
func (r *wireReader) runs() []ReplRun {
	n := r.count(math.MaxInt, 2)
	if n == 0 {
		return nil
	}
	runs := make([]ReplRun, n)
	for i := range runs {
		runs[i].T0 = r.varint()
		runs[i].V = r.take(r.count(math.MaxInt, 1))
	}
	if r.err != nil {
		return nil
	}
	return runs
}

func (r *wireReader) model() *markov.Snapshot {
	s := &markov.Snapshot{Bins: int(r.varint()), Decay: r.f64(), Lo: r.f64(), Hi: r.f64(), RangeSet: r.bool()}
	if rows := r.count(markov.MaxBins, 1); rows > 0 {
		s.Counts = make([][]float64, rows)
		for i := range s.Counts {
			s.Counts[i] = r.f64s()
		}
	}
	if r.bool() {
		s.RowSums = r.f64s()
		if s.RowSums == nil {
			s.RowSums = []float64{}
		}
	}
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
