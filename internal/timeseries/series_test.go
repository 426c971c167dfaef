package timeseries

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSeriesBasics(t *testing.T) {
	s := New(100, []float64{1, 2, 3, 4})
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.Start(); got != 100 {
		t.Errorf("Start = %d, want 100", got)
	}
	if got := s.End(); got != 104 {
		t.Errorf("End = %d, want 104", got)
	}
	if got := s.At(2); got != 3 {
		t.Errorf("At(2) = %v, want 3", got)
	}
	if got := s.TimeAt(3); got != 103 {
		t.Errorf("TimeAt(3) = %d, want 103", got)
	}
}

func TestSeriesCopiesInput(t *testing.T) {
	in := []float64{1, 2, 3}
	s := New(0, in)
	in[0] = 99
	if s.At(0) != 1 {
		t.Error("New must copy its input slice")
	}
	out := s.Values()
	out[1] = 99
	if s.At(1) != 2 {
		t.Error("Values must return a copy")
	}
}

func TestSeriesWindow(t *testing.T) {
	s := New(0, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	w := s.Window(3, 6)
	if w.Len() != 3 || w.Start() != 3 || w.At(0) != 3 || w.At(2) != 5 {
		t.Fatalf("Window(3,6) wrong: %+v values=%v", w, w.Values())
	}
	// Clamping.
	w = s.Window(-5, 100)
	if w.Len() != 10 || w.Start() != 0 {
		t.Errorf("clamped window wrong: len=%d start=%d", w.Len(), w.Start())
	}
	// Empty when inverted.
	w = s.Window(8, 3)
	if w.Len() != 0 {
		t.Errorf("inverted window should be empty, got len %d", w.Len())
	}
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1)
	s.Append(2)
	if s.Len() != 2 || s.At(1) != 2 {
		t.Errorf("append on zero value failed: %v", s.Values())
	}
}

func TestMeanStd(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Std(vals); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("Mean/Std of empty input should be 0")
	}
}

// Percentile is PercentileScratch with a fresh buffer.
func Percentile(vals []float64, p float64) (float64, error) {
	var scratch []float64
	return PercentileScratch(vals, p, &scratch)
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	}
	for _, tt := range tests {
		got, err := Percentile(vals, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of empty input should error")
	}
}

func TestPercentileClampsP(t *testing.T) {
	vals := []float64{3, 1, 2}
	lo, err := Percentile(vals, -10)
	if err != nil || lo != 1 {
		t.Errorf("Percentile(-10) = %v,%v, want 1", lo, err)
	}
	hi, err := Percentile(vals, 200)
	if err != nil || hi != 3 {
		t.Errorf("Percentile(200) = %v,%v, want 3", hi, err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v,%v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax of empty input should error")
	}
}

func TestSmoothPreservesConstant(t *testing.T) {
	vals := []float64{5, 5, 5, 5, 5}
	got := Smooth(vals, 3)
	for i, v := range got {
		if !almostEqual(v, 5, 1e-12) {
			t.Errorf("Smooth[%d] = %v, want 5", i, v)
		}
	}
}

func TestSmoothReducesVariance(t *testing.T) {
	// Alternating signal: smoothing must reduce spread.
	vals := make([]float64, 50)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = 10
		}
	}
	sm := Smooth(vals, 5)
	if Std(sm) >= Std(vals) {
		t.Errorf("smoothing did not reduce variance: %v >= %v", Std(sm), Std(vals))
	}
	if len(sm) != len(vals) {
		t.Errorf("smoothing changed length: %d != %d", len(sm), len(vals))
	}
}

func TestSmoothWidthOne(t *testing.T) {
	vals := []float64{1, 2, 3}
	got := Smooth(vals, 1)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("Smooth width 1 should copy, got %v", got)
		}
	}
}

func TestSlopeAtLinear(t *testing.T) {
	// Slope of 2*i is 2 everywhere, regardless of window clamping.
	vals := FromFunc(0, 20, func(i int) float64 { return 2 * float64(i) }).Values()
	for _, i := range []int{0, 1, 10, 19} {
		if got := SlopeAt(vals, i, 3); !almostEqual(got, 2, 1e-12) {
			t.Errorf("SlopeAt(%d) = %v, want 2", i, got)
		}
	}
}

func TestSlopeAtDegenerate(t *testing.T) {
	if got := SlopeAt([]float64{1}, 0, 2); got != 0 {
		t.Errorf("SlopeAt on single point = %v, want 0", got)
	}
}

func TestTrendString(t *testing.T) {
	if TrendUp.String() != "up" || TrendDown.String() != "down" || TrendFlat.String() != "flat" {
		t.Error("Trend.String mismatch")
	}
}

func TestRingBasics(t *testing.T) {
	r := NewRing(3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("fresh ring cap=%d len=%d", r.Cap(), r.Len())
	}
	if _, _, ok := r.Last(); ok {
		t.Error("Last on empty ring should report !ok")
	}
	r.Push(1, 10)
	r.Push(2, 20)
	if tm, v, ok := r.Last(); !ok || tm != 2 || v != 20 {
		t.Errorf("Last = %d,%v,%v", tm, v, ok)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := int64(0); i < 5; i++ {
		r.Push(i, float64(i)*10)
	}
	s := r.Series()
	if s.Len() != 3 || s.Start() != 2 {
		t.Fatalf("ring series start=%d len=%d, want 2,3", s.Start(), s.Len())
	}
	want := []float64{20, 30, 40}
	for i, w := range want {
		if s.At(i) != w {
			t.Errorf("ring[%d] = %v, want %v", i, s.At(i), w)
		}
	}
}

func TestRingMinCapacity(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Errorf("NewRing(0) cap = %d, want 1", r.Cap())
	}
	r.Push(1, 1)
	r.Push(2, 2)
	if r.Len() != 1 {
		t.Errorf("len = %d, want 1", r.Len())
	}
}

// Property: Smooth never widens the [min,max] range of its input.
func TestSmoothBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			// Constrain to a sane range to avoid inf/NaN artifacts.
			vals[i] = math.Mod(v, 1e6)
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
		}
		lo, hi, _ := MinMax(vals)
		sm := Smooth(vals, 5)
		slo, shi, _ := MinMax(sm)
		return slo >= lo-1e-9 && shi <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, _ := Percentile(raw, pa)
		vb, _ := Percentile(raw, pb)
		return va <= vb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ring retains exactly the most recent min(n, cap) pushes in order.
func TestRingRetentionProperty(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := NewRing(capacity)
		total := int(n)
		for i := 0; i < total; i++ {
			r.Push(int64(i), float64(i))
		}
		s := r.Series()
		want := total
		if want > capacity {
			want = capacity
		}
		if s.Len() != want {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			expect := float64(total - want + i)
			if s.At(i) != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
