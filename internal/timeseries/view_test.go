package timeseries

import (
	"testing"
)

func TestWindowViewMatchesWindow(t *testing.T) {
	s := FromFunc(100, 50, func(i int) float64 { return float64(i * i) })
	cases := [][2]int64{{100, 150}, {110, 120}, {90, 200}, {120, 120}, {149, 150}, {200, 300}}
	for _, c := range cases {
		w := s.Window(c[0], c[1])
		v := s.WindowView(c[0], c[1])
		if w.Start() != v.Start() || w.Len() != v.Len() {
			t.Fatalf("window [%d,%d): view start/len (%d,%d) != copy (%d,%d)",
				c[0], c[1], v.Start(), v.Len(), w.Start(), w.Len())
		}
		for i := 0; i < w.Len(); i++ {
			if w.At(i) != v.At(i) {
				t.Fatalf("window [%d,%d) idx %d: %v != %v", c[0], c[1], i, v.At(i), w.At(i))
			}
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	s := FromFunc(0, 10, func(i int) float64 { return float64(i) })
	v := s.WindowView(2, 8)
	s.vals[2] = 99
	if v.At(0) != 99 {
		t.Error("WindowView copied storage; expected aliasing")
	}
	if got := s.ValuesView(); &got[0] != &s.vals[0] {
		t.Error("ValuesView copied storage")
	}
}

func TestViewsAllocationFree(t *testing.T) {
	s := FromFunc(0, 1000, func(i int) float64 { return float64(i) })
	r := NewRing(512)
	for i := 0; i < 600; i++ {
		r.Push(int64(i), float64(i))
	}
	scratch := &Series{}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		m := r.SeriesInto(scratch)
		w := m.WindowView(200, 400)
		for _, v := range w.ValuesView() {
			sink += v
		}
		_ = s.WindowView(10, 900)
	})
	if sink == 0 {
		t.Fatal("sink untouched")
	}
	// WindowView returns a new *Series header (1 small alloc each);
	// the guard is that no O(n) value copies happen per iteration.
	if allocs > 4 {
		t.Errorf("hot path allocates %v objects per run, want <= 4 headers", allocs)
	}
}

func TestSeriesIntoReuseAndEdgeCases(t *testing.T) {
	r := NewRing(8)
	scratch := &Series{}
	if got := r.SeriesInto(scratch); got.Len() != 0 {
		t.Fatalf("empty ring produced %d samples", got.Len())
	}
	for i := 0; i < 12; i++ { // wraps the ring
		r.Push(int64(i), float64(i))
	}
	got := r.SeriesInto(scratch)
	want := r.Series()
	if got.Start() != want.Start() || got.Len() != want.Len() {
		t.Fatalf("SeriesInto (%d,%d) != Series (%d,%d)", got.Start(), got.Len(), want.Start(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("idx %d: %v != %v", i, got.At(i), want.At(i))
		}
	}
	if nil2 := r.SeriesInto(nil); nil2.Len() != want.Len() {
		t.Errorf("nil dst fallback broken")
	}
}

func TestRingClear(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Push(int64(i), float64(i))
	}
	r.Clear()
	if r.Len() != 0 {
		t.Fatalf("Len after Clear = %d", r.Len())
	}
	if _, _, ok := r.Last(); ok {
		t.Fatal("Last returned a sample after Clear")
	}
	r.Push(100, 1)
	s := r.Series()
	if s.Len() != 1 || s.Start() != 100 {
		t.Fatalf("post-Clear push broken: %v", s)
	}
}
