package ingest

import (
	"math"
	"testing"
)

// drain pushes a clean in-order stream and returns everything released,
// including the final flush.
func drain(s *Sanitizer, samples []Sample, flushTo int64) []Sample {
	var out []Sample
	for _, smp := range samples {
		out = append(out, s.Push(smp.T, smp.V)...)
	}
	out = append(out, s.Flush(flushTo)...)
	return out
}

func seq(start int64, n int, f func(i int) float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{T: start + int64(i), V: f(i)}
	}
	return out
}

func TestCleanStreamPassesThrough(t *testing.T) {
	s := NewSanitizer(Config{})
	in := seq(100, 50, func(i int) float64 { return float64(i) })
	out := drain(s, in, 200)
	if len(out) != len(in) {
		t.Fatalf("released %d samples, want %d", len(out), len(in))
	}
	for i, smp := range out {
		if smp.T != in[i].T || smp.V != in[i].V || smp.Filled || smp.GapBefore != 0 {
			t.Fatalf("sample %d = %+v, want %+v clean", i, smp, in[i])
		}
	}
	st := s.Stats()
	if st.Accepted != 50 || st.Dropped() != 0 || st.Score() != 1 {
		t.Errorf("clean stream stats polluted: %v", st)
	}
}

func TestRejectsNaNAndInf(t *testing.T) {
	s := NewSanitizer(Config{})
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := s.Push(int64(i), v); len(got) != 0 {
			t.Errorf("non-finite value released: %v", got)
		}
	}
	if st := s.Stats(); st.DroppedInvalid != 3 || st.Accepted != 0 {
		t.Errorf("stats = %v, want 3 invalid drops", st)
	}
}

func TestReorderWithinWindow(t *testing.T) {
	s := NewSanitizer(Config{ReorderWindow: 5})
	var out []Sample
	// 0,1,2,4,3,5: sample 3 arrives late but within the window.
	for _, ti := range []int64{0, 1, 2, 4, 3, 5} {
		out = append(out, s.Push(ti, float64(ti))...)
	}
	out = append(out, s.Flush(10)...)
	for i, smp := range out {
		if smp.T != int64(i) {
			t.Fatalf("released order broken at %d: got t=%d", i, smp.T)
		}
		if smp.V != float64(i) {
			t.Fatalf("value mismatch at t=%d: %v", smp.T, smp.V)
		}
	}
	if st := s.Stats(); st.Reordered != 1 || st.Dropped() != 0 {
		t.Errorf("stats = %v, want exactly 1 reordered", st)
	}
}

func TestLateSampleDropped(t *testing.T) {
	s := NewSanitizer(Config{ReorderWindow: 2})
	var out []Sample
	for ti := int64(0); ti <= 10; ti++ {
		out = append(out, s.Push(ti, 1)...)
	}
	// t=3 was released long ago (10-2=8 is the release horizon).
	if got := s.Push(3, 99); len(got) != 0 {
		t.Fatalf("late sample released: %v", got)
	}
	if st := s.Stats(); st.DroppedLate != 1 {
		t.Errorf("stats = %v, want 1 late drop", st)
	}
}

func TestDuplicateTimestamps(t *testing.T) {
	s := NewSanitizer(Config{ReorderWindow: 5})
	s.Push(0, 1)
	s.Push(1, 2)
	s.Push(1, 99) // duplicate while still buffered
	out := s.Flush(10)
	if len(out) != 2 || out[1].V != 2 {
		t.Fatalf("duplicate not dropped: %+v", out)
	}
	// Duplicate of an already-released timestamp.
	if got := s.Push(1, 99); len(got) != 0 {
		t.Fatalf("released duplicate accepted: %v", got)
	}
	if st := s.Stats(); st.Duplicates != 2 {
		t.Errorf("stats = %v, want 2 duplicates", st)
	}
}

func TestShortGapInterpolated(t *testing.T) {
	s := NewSanitizer(Config{ReorderWindow: 1, MaxFillGap: 5})
	var out []Sample
	out = append(out, s.Push(0, 10)...)
	out = append(out, s.Push(4, 18)...) // 3 missing seconds: 1, 2, 3
	out = append(out, s.Flush(10)...)
	if len(out) != 5 {
		t.Fatalf("released %d samples, want 5 (2 real + 3 filled): %+v", len(out), out)
	}
	for i := 1; i <= 3; i++ {
		smp := out[i]
		want := 10 + float64(i)*2 // linear between 10 and 18
		if !smp.Filled || smp.T != int64(i) || math.Abs(smp.V-want) > 1e-9 {
			t.Errorf("fill %d = %+v, want t=%d v=%v filled", i, smp, i, want)
		}
	}
	if st := s.Stats(); st.Filled != 3 || st.GapSeconds != 0 {
		t.Errorf("stats = %v, want 3 filled", st)
	}
}

func TestLongGapMarkedMissing(t *testing.T) {
	s := NewSanitizer(Config{ReorderWindow: 1, MaxFillGap: 5})
	var out []Sample
	out = append(out, s.Push(0, 10)...)
	out = append(out, s.Push(100, 20)...)
	out = append(out, s.Flush(200)...)
	if len(out) != 2 {
		t.Fatalf("long gap was filled: %d samples", len(out))
	}
	if out[1].GapBefore != 99 {
		t.Errorf("GapBefore = %d, want 99", out[1].GapBefore)
	}
	if st := s.Stats(); st.GapSeconds != 99 || st.LongGaps != 1 || st.Filled != 0 {
		t.Errorf("stats = %v, want 99 gap seconds in 1 long gap", st)
	}
}

func TestClampEngagesAfterWarmup(t *testing.T) {
	s := NewSanitizer(Config{ReorderWindow: 1, ClampSigma: 10, ClampMinSamples: 64})
	for i := 0; i < 100; i++ {
		s.Push(int64(i), 50+float64(i%7)) // mean ~53, sd ~2
	}
	out := s.Push(100, 1e12)
	out = append(out, s.Flush(200)...)
	var last Sample
	for _, smp := range out {
		if smp.T == 100 {
			last = smp
		}
	}
	if last.T != 100 {
		t.Fatal("clamped sample not released")
	}
	if last.V > 1e3 {
		t.Errorf("corrupted magnitude passed through: %v", last.V)
	}
	if st := s.Stats(); st.Clamped != 1 {
		t.Errorf("stats = %v, want 1 clamp", st)
	}
}

func TestClampLeavesFaultSignaturesAlone(t *testing.T) {
	// A fault step of a few sigma must pass untouched — the clamp only
	// guards against absurd corruption, not the signal FChain detects.
	s := NewSanitizer(Config{ReorderWindow: 1})
	for i := 0; i < 200; i++ {
		s.Push(int64(i), 50+10*math.Sin(float64(i)/10))
	}
	out := s.Push(200, 95) // a large but plausible fault jump
	out = append(out, s.Flush(300)...)
	for _, smp := range out {
		if smp.T == 200 && smp.V != 95 {
			t.Errorf("fault signature clamped: %v", smp.V)
		}
	}
	if st := s.Stats(); st.Clamped != 0 {
		t.Errorf("stats = %v, want no clamps", st)
	}
}

func TestScoreDegradesWithDirt(t *testing.T) {
	clean := Stats{Accepted: 100}
	if clean.Score() != 1 {
		t.Errorf("clean score = %v, want 1", clean.Score())
	}
	dirty := Stats{Accepted: 100, DroppedInvalid: 20, GapSeconds: 30}
	if s := dirty.Score(); s >= 1 || s <= 0 {
		t.Errorf("dirty score = %v, want in (0,1)", s)
	}
	if (Stats{}).Score() != 1 {
		t.Errorf("empty stream score = %v, want 1", (Stats{}).Score())
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Accepted: 1, DroppedLate: 2, Filled: 3}
	a.Merge(Stats{Accepted: 10, Duplicates: 5, GapSeconds: 7, LongGaps: 1})
	if a.Accepted != 11 || a.DroppedLate != 2 || a.Duplicates != 5 || a.Filled != 3 || a.GapSeconds != 7 || a.LongGaps != 1 {
		t.Errorf("merge wrong: %+v", a)
	}
}

func TestCorruptDeterministic(t *testing.T) {
	in := seq(0, 500, func(i int) float64 { return float64(i % 13) })
	cfg := CorruptConfig{Seed: 7, DropRate: 0.1, DupRate: 0.05, NaNRate: 0.02, SpikeRate: 0.02, JitterMax: 3}
	a := Corrupt(in, cfg)
	b := Corrupt(in, cfg)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		av, bv := a[i], b[i]
		if av.T != bv.T || (av.V != bv.V && !(math.IsNaN(av.V) && math.IsNaN(bv.V))) {
			t.Fatalf("nondeterministic at %d: %+v vs %+v", i, av, bv)
		}
	}
}

func TestCorruptedStreamSanitizes(t *testing.T) {
	// End to end: a heavily corrupted stream comes out time-ordered,
	// finite, and dense up to long gaps.
	in := seq(0, 1000, func(i int) float64 { return 50 + float64(i%17) })
	corrupted := Corrupt(in, CorruptConfig{
		Seed: 3, DropRate: 0.05, DupRate: 0.05, NaNRate: 0.03, SpikeRate: 0.02, JitterMax: 4,
	})
	s := NewSanitizer(Config{ReorderWindow: 5, MaxFillGap: 10})
	var out []Sample
	for _, smp := range corrupted {
		out = append(out, s.Push(smp.T, smp.V)...)
	}
	out = append(out, s.Flush(2000)...)
	last := int64(-1)
	for _, smp := range out {
		if math.IsNaN(smp.V) || math.IsInf(smp.V, 0) {
			t.Fatalf("non-finite value released at t=%d", smp.T)
		}
		if smp.T <= last && smp.GapBefore == 0 {
			t.Fatalf("out of order: t=%d after %d", smp.T, last)
		}
		if smp.T != last+1 && last >= 0 && smp.GapBefore == 0 {
			t.Fatalf("unmarked gap: t=%d after %d", smp.T, last)
		}
		last = smp.T
	}
	st := s.Stats()
	if st.Accepted == 0 || st.DroppedInvalid == 0 || st.Duplicates == 0 {
		t.Errorf("corruption not reflected in stats: %v", st)
	}
	if sc := st.Score(); sc >= 1 || sc < 0.5 {
		t.Errorf("score = %v, want degraded but reasonable", sc)
	}
}

// TestAppendPushKeepsDst pins the append contract: released samples land
// after whatever dst already holds, which is never overwritten, and a
// stream fed through AppendPush/AppendFlush releases exactly what
// Push/Flush release.
func TestAppendPushKeepsDst(t *testing.T) {
	in := seq(0, 200, func(i int) float64 { return float64(i % 13) })
	corrupted := Corrupt(in, CorruptConfig{Seed: 9, DropRate: 0.1, DupRate: 0.05, NaNRate: 0.02, JitterMax: 3})
	ref := NewSanitizer(Config{})
	want := drain(ref, corrupted, 300)

	s := NewSanitizer(Config{})
	sentinel := Sample{T: -1, V: -1, GapBefore: -1}
	got := []Sample{sentinel}
	for _, smp := range corrupted {
		got = s.AppendPush(got, smp.T, smp.V)
		if got[0] != sentinel {
			t.Fatalf("AppendPush overwrote dst[0]: %+v", got[0])
		}
	}
	got = s.AppendFlush(got, 300)
	if got[0] != sentinel {
		t.Fatalf("AppendFlush overwrote dst[0]: %+v", got[0])
	}
	if len(got)-1 != len(want) {
		t.Fatalf("appended %d samples, Push/Flush released %d", len(got)-1, len(want))
	}
	for i, smp := range got[1:] {
		if smp != want[i] {
			t.Fatalf("sample %d = %+v, Push/Flush released %+v", i, smp, want[i])
		}
	}
	if s.Stats() != ref.Stats() {
		t.Errorf("stats %v, Push/Flush stats %v", s.Stats(), ref.Stats())
	}

	// A reused buffer is appended to in place, past its length.
	buf := make([]Sample, 1, 64)
	buf[0] = sentinel
	s2 := NewSanitizer(Config{ReorderWindow: 1})
	s2.Push(0, 1)
	out := s2.AppendPush(buf, 5, 2) // releases t=0
	if &out[0] != &buf[0] || out[0] != sentinel || len(out) != 2 || out[1].T != 0 {
		t.Fatalf("AppendPush into spare capacity = %+v", out)
	}
	out = s2.AppendFlush(out[:1], 10) // t=1..4 filled, then t=5
	if &out[0] != &buf[0] || out[0] != sentinel || len(out) != 1+5 || !out[1].Filled || out[5].T != 5 {
		t.Fatalf("AppendFlush into spare capacity = %+v", out)
	}
	if got := s2.AppendPush(buf, 5, 3); len(got) != 1 {
		t.Fatalf("duplicate released %+v", got[1:])
	}
}
