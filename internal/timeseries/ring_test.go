package timeseries

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// twoColumnRing is the reference ring: every slot stores its timestamp next
// to its value, so it returns whatever was pushed by construction. Ring must
// be indistinguishable from it through every read.
type twoColumnRing struct {
	vals  []float64
	times []int64
	head  int
	size  int
}

func newTwoColumnRing(capacity int) *twoColumnRing {
	capacity = max(capacity, 1)
	return &twoColumnRing{vals: make([]float64, capacity), times: make([]int64, capacity)}
}

func (r *twoColumnRing) at(i int) (int64, float64) {
	idx := (r.head + i) % len(r.vals)
	return r.times[idx], r.vals[idx]
}

func (r *twoColumnRing) push(t int64, v float64) {
	idx := (r.head + r.size) % len(r.vals)
	r.vals[idx] = v
	r.times[idx] = t
	if r.size < len(r.vals) {
		r.size++
		return
	}
	r.head = (r.head + 1) % len(r.vals)
}

func (r *twoColumnRing) clear() {
	r.head, r.size = 0, 0
}

// contents returns the retained samples, oldest first.
func (r *twoColumnRing) contents() (times []int64, vals []float64) {
	for i := 0; i < r.size; i++ {
		t, v := r.at(i)
		times = append(times, t)
		vals = append(vals, v)
	}
	return times, vals
}

// ringPair drives a Ring and the reference through the same operations and
// compares every read after each one. The ring is the middle one of three
// that NewRings lays over one array; its neighbours are filled once and
// must never change.
type ringPair struct {
	tb    testing.TB
	r     *Ring
	ref   *twoColumnRing
	nbrs  [2]*Ring
	t     int64
	dst   Series
	nops  int
	label string
}

func newRingPair(tb testing.TB, capacity int) *ringPair {
	rings := NewRings(3, capacity)
	p := &ringPair{tb: tb, r: &rings[1], ref: newTwoColumnRing(capacity), nbrs: [2]*Ring{&rings[0], &rings[2]}, t: 1000}
	for i, nb := range p.nbrs {
		for j := range nb.Cap() {
			nb.Push(int64(j), neighbourValue(i, j))
		}
	}
	return p
}

// neighbourValue is the j-th value of ringPair's i-th neighbour ring.
func neighbourValue(i, j int) float64 { return -float64(1+i) - float64(j)/4 }

// apply performs one operation chosen by op, with arg as its parameter:
// mostly one-second steps, some forward gaps, some arbitrary steps
// (including backwards and repeated times), Clear, a rebuild of both rings
// from the retained samples, and a rebuild from crafted samples whose times
// need not increase.
func (p *ringPair) apply(op, arg byte) {
	p.nops++
	switch op % 16 {
	default:
		p.push(1, arg)
	case 11:
		p.push(2+int64(arg%50), arg)
	case 12:
		p.push(int64(int8(arg)), arg)
	case 13:
		p.label = "clear"
		p.r.Clear()
		p.ref.clear()
	case 14:
		p.label = "rebuild"
		p.rebuild(p.ref.contents())
	case 15:
		p.label = "crafted rebuild"
		var times []int64
		var vals []float64
		x := uint32(arg)*2654435761 + 1
		for i := 0; i < int(arg)%(p.r.Cap()+3); i++ {
			x = x*1103515245 + 12345
			p.t += int64(x>>16)%5 - 2
			times = append(times, p.t)
			vals = append(vals, float64(x>>8)*0.125)
		}
		p.rebuild(times, vals)
	}
	p.check()
}

func (p *ringPair) push(step int64, arg byte) {
	p.label = "push"
	p.t += step
	v := float64(p.t)*0.5 + float64(arg)
	p.r.Push(p.t, v)
	p.ref.push(p.t, v)
}

// rebuild clears both rings and pushes the given samples, oldest first: how
// a monitor installs a ring it received.
func (p *ringPair) rebuild(times []int64, vals []float64) {
	p.r.Clear()
	p.ref.clear()
	for i := range times {
		p.r.Push(times[i], vals[i])
		p.ref.push(times[i], vals[i])
	}
}

func (p *ringPair) check() {
	p.tb.Helper()
	fail := func(format string, args ...any) {
		p.tb.Helper()
		p.tb.Fatalf("cap %d, op %d (%s): "+format, append([]any{p.r.Cap(), p.nops, p.label}, args...)...)
	}
	r, ref := p.r, p.ref
	if r.Len() != ref.size || r.Cap() != len(ref.vals) {
		fail("len/cap %d/%d, want %d/%d", r.Len(), r.Cap(), ref.size, len(ref.vals))
	}
	for i := 0; i < ref.size; i++ {
		wt, wv := ref.at(i)
		if t, v := r.At(i); t != wt || math.Float64bits(v) != math.Float64bits(wv) {
			fail("At(%d) = (%d, %v), want (%d, %v)", i, t, v, wt, wv)
		}
		if v := r.Value(i); math.Float64bits(v) != math.Float64bits(wv) {
			fail("Value(%d) = %v, want %v", i, v, wv)
		}
	}
	t, v, ok := r.Last()
	if ok != (ref.size > 0) {
		fail("Last ok = %v with %d samples", ok, ref.size)
	}
	if ok {
		wt, wv := ref.at(ref.size - 1)
		if t != wt || math.Float64bits(v) != math.Float64bits(wv) {
			fail("Last = (%d, %v), want (%d, %v)", t, v, wt, wv)
		}
		if first, _ := ref.at(0); r.First() != first {
			fail("First = %d, want %d", r.First(), first)
		}
	}
	times, vals := ref.contents()
	var start int64
	if ref.size > 0 {
		start = times[0]
	}
	// Stretch by stretch, AppendStretch yields every sample's time and bits.
	var stretchT []int64
	var stretchV []float64
	for i, n := 0, 0; i < r.Len(); i += n {
		var bits []byte
		var t0 int64
		if bits, t0, n = r.AppendStretch(nil, i); n < 1 || len(bits) != 8*n {
			fail("AppendStretch(%d) = %d bytes for %d samples", i, len(bits), n)
		}
		for j := range n {
			stretchT = append(stretchT, t0+int64(j))
			stretchV = append(stretchV, math.Float64frombits(binary.LittleEndian.Uint64(bits[8*j:])))
		}
	}
	if !slices.Equal(stretchT, times) || !slices.EqualFunc(stretchV, vals, sameBits) {
		fail("stretches hold %v %v, want %v %v", stretchT, stretchV, times, vals)
	}
	for _, s := range []*Series{r.Series(), r.SeriesInto(&p.dst)} {
		if s.Start() != start || !slices.EqualFunc(s.Values(), vals, sameBits) {
			fail("series start %d vals %v, want %d %v", s.Start(), s.Values(), start, vals)
		}
	}
	for i, nb := range p.nbrs {
		if nb.Len() != nb.Cap() {
			fail("neighbour %d holds %d of %d samples", i, nb.Len(), nb.Cap())
		}
		for j := range nb.Len() {
			if t, v := nb.At(j); t != int64(j) || v != neighbourValue(i, j) {
				fail("neighbour %d At(%d) = (%d, %v), want (%d, %v)", i, j, t, v, j, neighbourValue(i, j))
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRingMatchesTwoColumnReference drives random operation sequences
// through Ring and the reference at capacities from 1 to a slave's default.
func TestRingMatchesTwoColumnReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 1440} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		p := newRingPair(t, capacity)
		ops := 400 + 3*capacity
		for i := 0; i < ops; i++ {
			op := byte(0) // a one-second step
			switch x := rng.Intn(100); {
			case x < 6:
				op = 11
			case x < 8:
				op = 12
			case x < 9:
				op = 13
			case x < 10:
				op = byte(14 + rng.Intn(2))
			}
			p.apply(op, byte(rng.Intn(256)))
		}
	}
}

// FuzzRing decodes bytes into a capacity and an operation sequence and
// compares Ring with the reference after every operation.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 1, 0, 2, 11, 7, 0, 3, 12, 200, 0, 4, 14, 0, 0, 5})
	f.Add([]byte{2, 15, 9, 0, 1, 13, 0, 12, 0, 12, 255, 15, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		caps := []int{1, 2, 3, 7, 1440}
		p := newRingPair(t, caps[int(data[0])%len(caps)])
		for i := 1; i+1 < len(data); i += 2 {
			p.apply(data[i], data[i+1])
		}
	})
}

// TestRingPushAllocFree guards the collection path: pushing one-second steps
// into a full ring moves its single run forward and allocates nothing.
func TestRingPushAllocFree(t *testing.T) {
	r := NewRing(1440)
	ts := int64(0)
	for ; ts < 2000; ts++ {
		r.Push(ts, float64(ts))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push(ts, float64(ts))
		ts++
	})
	if allocs != 0 {
		t.Fatalf("Push on a full dense ring allocates %.1f per call; want 0", allocs)
	}
}

func TestRingAt(t *testing.T) {
	r := NewRing(4)
	for i := int64(0); i < 6; i++ {
		r.Push(i, float64(i)*2)
	}
	// Capacity 4, pushed 6: retains t=2..5 oldest-first.
	for i := 0; i < r.Len(); i++ {
		ts, v := r.At(i)
		if want := int64(2 + i); ts != want || v != float64(want)*2 {
			t.Fatalf("At(%d) = (%d, %v), want (%d, %v)", i, ts, v, want, float64(want)*2)
		}
	}
	r.Clear()
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range should panic")
		}
	}()
	r.At(0)
}
