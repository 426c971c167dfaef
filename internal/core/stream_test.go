package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"fchain/internal/metric"
)

// streamPair is a streaming monitor and a batch monitor fed identical
// samples, for byte-equality differential tests.
type streamPair struct {
	stream *Monitor
	batch  *Monitor
}

func newStreamPair(cfg Config) streamPair {
	scfg := cfg
	scfg.Streaming = true
	bcfg := cfg
	bcfg.Streaming = false
	return streamPair{
		stream: NewMonitor("comp", scfg),
		batch:  NewMonitor("comp", bcfg),
	}
}

func (p streamPair) observe(t *testing.T, ts int64, k metric.Kind, v float64) {
	t.Helper()
	if err := p.stream.Observe(ts, k, v); err != nil {
		t.Fatal(err)
	}
	if err := p.batch.Observe(ts, k, v); err != nil {
		t.Fatal(err)
	}
}

// compare asserts the two monitors' reports at tv are byte-identical.
func (p streamPair) compare(t *testing.T, tv int64, what string) ComponentReport {
	t.Helper()
	rs := p.stream.Analyze(tv)
	rb := p.batch.Analyze(tv)
	js, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(rb)
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != string(jb) {
		t.Fatalf("%s (tv=%d): streaming report differs from batch\nstreaming: %s\nbatch:     %s", what, tv, js, jb)
	}
	return rs
}

// signalAt synthesizes one metric sample: workload-looking fluctuation, with
// a fault-like sustained shift on cpu and memory after the inject time.
func signalAt(k metric.Kind, ts, inject int64, rng *rand.Rand) float64 {
	base := float64(40+ts%23) + float64(ts%7) + rng.NormFloat64()*0.3
	if ts >= inject {
		switch k {
		case metric.CPU:
			base += 45
		case metric.Memory:
			base += float64(ts-inject) * 1.5 // gradual leak-style ramp
		}
	}
	return base
}

// TestStreamingMatchesBatchEveryStep is the headline equality property:
// analyses at every advancing stream head — FFT memo hits and all —
// marshal to exactly the bytes the batch kernel produces.
func TestStreamingMatchesBatchEveryStep(t *testing.T) {
	cfg := DefaultConfig()
	p := newStreamPair(cfg)
	rng := rand.New(rand.NewSource(42))
	const inject = 520
	sawAbnormal := false
	for ts := int64(1); ts <= 600; ts++ {
		for _, k := range metric.Kinds {
			krng := rand.New(rand.NewSource(int64(k)*1000 + ts))
			_ = rng
			p.observe(t, ts, k, signalAt(k, ts, inject, krng))
		}
		if ts >= 400 && ts%7 == 0 || ts >= inject {
			r := p.compare(t, ts, "advancing head")
			if r.Abnormal() {
				sawAbnormal = true
			}
		}
	}
	if !sawAbnormal {
		t.Fatal("scenario never produced an abnormal report; equality test is vacuous")
	}
	st := p.stream.StreamingStats()
	if st.Streams != len(metric.Kinds) {
		t.Fatalf("Streams = %d, want %d", st.Streams, len(metric.Kinds))
	}
	if st.Bytes <= 0 {
		t.Fatal("streaming state reports zero bytes")
	}
}

// TestStreamingColdFallbacks: analyses at a historical tv and with an
// overridden look-back window miss the kernel memo, so they run the batch
// kernel (cold counter moves) and must match batch bytes.
func TestStreamingColdFallbacks(t *testing.T) {
	cfg := DefaultConfig()
	p := newStreamPair(cfg)
	for ts := int64(1); ts <= 500; ts++ {
		for _, k := range metric.Kinds {
			krng := rand.New(rand.NewSource(int64(k)*1000 + ts))
			p.observe(t, ts, k, signalAt(k, ts, 420, krng))
		}
	}
	before := p.stream.StreamingStats().Colds

	// Historical tv: no memo entry exists for tv=450.
	rs, _ := AnalyzeMonitors([]*Monitor{p.stream}, 450, 0, 1)
	rb, _ := AnalyzeMonitors([]*Monitor{p.batch}, 450, 0, 1)
	js, _ := json.Marshal(rs)
	jb, _ := json.Marshal(rb)
	if string(js) != string(jb) {
		t.Fatalf("historical tv: streaming %s != batch %s", js, jb)
	}

	// Overridden look-back: a config no memo entry was stored under.
	rs, _ = AnalyzeMonitors([]*Monitor{p.stream}, 500, cfg.LookBack*2, 1)
	rb, _ = AnalyzeMonitors([]*Monitor{p.batch}, 500, cfg.LookBack*2, 1)
	js, _ = json.Marshal(rs)
	jb, _ = json.Marshal(rb)
	if string(js) != string(jb) {
		t.Fatalf("window override: streaming %s != batch %s", js, jb)
	}

	if after := p.stream.StreamingStats().Colds; after <= before {
		t.Fatalf("cold fallbacks not counted: %d -> %d", before, after)
	}
}

// TestStreamingMemo: re-localizing an unchanged stream at the same tv serves
// the memoized verdict; one new sample invalidates it.
func TestStreamingMemo(t *testing.T) {
	cfg := DefaultConfig()
	p := newStreamPair(cfg)
	for ts := int64(1); ts <= 500; ts++ {
		for _, k := range metric.Kinds {
			krng := rand.New(rand.NewSource(int64(k)*1000 + ts))
			p.observe(t, ts, k, signalAt(k, ts, 430, krng))
		}
	}
	p.compare(t, 500, "first analysis")
	hits0 := p.stream.StreamingStats().MemoHits
	p.compare(t, 500, "repeat analysis")
	hits1 := p.stream.StreamingStats().MemoHits
	if hits1 < hits0+uint64(len(metric.Kinds)) {
		t.Fatalf("repeat analysis at same tv should hit every metric memo: %d -> %d", hits0, hits1)
	}
	for _, k := range metric.Kinds {
		krng := rand.New(rand.NewSource(int64(k)*1000 + 501))
		p.observe(t, 501, k, signalAt(k, 501, 430, krng))
	}
	p.compare(t, 501, "after invalidation")
}

// TestStreamingRestoreMatchesBatch is the kill-and-restart drill: a monitor
// rebuilt from a checkpoint mid-fault must report the exact onset the batch
// kernel (and the uninterrupted streaming monitor) reports.
func TestStreamingRestoreMatchesBatch(t *testing.T) {
	cfg := DefaultConfig()
	scfg := cfg
	scfg.Streaming = true
	p := newStreamPair(cfg)
	const inject = 520
	feed := func(m *Monitor, from, to int64) {
		for ts := from; ts <= to; ts++ {
			for _, k := range metric.Kinds {
				krng := rand.New(rand.NewSource(int64(k)*1000 + ts))
				if err := m.Observe(ts, k, signalAt(k, ts, inject, krng)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed(p.stream, 1, 530)
	feed(p.batch, 1, 530)

	// Kill: checkpoint the streaming monitor mid-manifestation; restart: a
	// fresh streaming monitor restores it and the feed resumes.
	restored := NewMonitor("comp", scfg)
	if err := loadBytes(restored, p.stream.encodeCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if got := restored.StreamingStats().Resets; got == 0 {
		t.Fatal("restore did not rebuild streaming state")
	}
	feed(p.stream, 531, 560)
	feed(p.batch, 531, 560)
	feed(restored, 531, 560)

	want := p.batch.Analyze(560)
	for name, m := range map[string]*Monitor{"uninterrupted": p.stream, "restored": restored} {
		got := m.Analyze(560)
		jw, _ := json.Marshal(want)
		jg, _ := json.Marshal(got)
		if string(jw) != string(jg) {
			t.Fatalf("%s streaming monitor differs from batch after restart\ngot:  %s\nwant: %s", name, jg, jw)
		}
		if !got.Abnormal() {
			t.Fatalf("%s: fault not detected post-restart", name)
		}
		if got.Onset != want.Onset {
			t.Fatalf("%s: onset %d, batch onset %d", name, got.Onset, want.Onset)
		}
	}
}

// TestStreamingGapResetsState is the chaos drill: a collection gap long
// enough to sever the dense history (Ring.Clear + Predictor.Break) must
// reset the streaming state, and post-gap analyses must still match batch.
func TestStreamingGapResetsState(t *testing.T) {
	cfg := DefaultConfig()
	p := newStreamPair(cfg)
	ingestBoth := func(ts int64) {
		for _, k := range metric.Kinds {
			krng := rand.New(rand.NewSource(int64(k)*1000 + ts))
			v := signalAt(k, ts, 1<<40, krng)
			if err := p.stream.Ingest(ts, k, v); err != nil {
				t.Fatal(err)
			}
			if err := p.batch.Ingest(ts, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ts := int64(1); ts <= 300; ts++ {
		ingestBoth(ts)
	}
	resets0 := p.stream.StreamingStats().Resets
	// Jump far past MaxFillGap: the sanitizer severs the history.
	for ts := int64(400); ts <= 700; ts++ {
		ingestBoth(ts)
	}
	if resets1 := p.stream.StreamingStats().Resets; resets1 <= resets0 {
		t.Fatalf("collection gap did not reset streaming state: %d -> %d", resets0, resets1)
	}
	p.compare(t, 700, "post-gap")
}

// TestStreamingSerialMatchesParallel: the engine property extended to
// streaming monitors — worker count never changes bytes.
func TestStreamingSerialMatchesParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Streaming = true
	serial := cfg
	serial.Parallelism = 1
	par := cfg
	par.Parallelism = 4
	mkMonitors := func(c Config) []*Monitor {
		ms := make([]*Monitor, 3)
		for i := range ms {
			ms[i] = NewMonitor(string(rune('a'+i)), c)
		}
		return ms
	}
	feed := func(ms []*Monitor) {
		for ts := int64(1); ts <= 520; ts++ {
			for i, m := range ms {
				for _, k := range metric.Kinds {
					krng := rand.New(rand.NewSource(int64(i+1)*100000 + int64(k)*1000 + ts))
					inject := int64(1 << 40)
					if i == 1 {
						inject = 470
					}
					if err := m.Observe(ts, k, signalAt(k, ts, inject, krng)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	ms1, ms4 := mkMonitors(serial), mkMonitors(par)
	feed(ms1)
	feed(ms4)
	r1, _ := AnalyzeMonitors(ms1, 520, 0, 1)
	r4, _ := AnalyzeMonitors(ms4, 520, 0, 4)
	j1, _ := json.Marshal(r1)
	j4, _ := json.Marshal(r4)
	if string(j1) != string(j4) {
		t.Fatalf("streaming serial != parallel\nserial:   %s\nparallel: %s", j1, j4)
	}
}

// FuzzStreamingMatchesBatch is the equality contract under a dirty feed: the
// fuzz bytes script a streaming monitor's and a batch monitor's Ingest —
// reordered seconds, duplicates, short gaps the sanitizer fills, long gaps
// that sever the history, and NaN — and the two must then report the same
// bytes at the head, at a historical tv and with an overridden look-back.
// Every analysis runs twice, and the repeat must be served by the kernel memo.
func FuzzStreamingMatchesBatch(f *testing.F) {
	f.Add(int64(1), []byte{0})
	f.Add(int64(2), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(3), []byte{0, 0, 0, 4, 0, 0, 5, 0, 0, 0, 0x2e, 0, 0, 0, 0, 0x66, 0, 0x85})
	f.Add(int64(4), append(make([]byte, 200), 7)) // one late long gap
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) == 0 {
			return
		}
		const steps, inject = 360, 300
		cfg := DefaultConfig()
		p := newStreamPair(cfg)
		ingest := func(ts int64, k metric.Kind, v float64) {
			if err := p.stream.Ingest(ts, k, v); err != nil {
				t.Fatal(err)
			}
			if err := p.batch.Ingest(ts, k, v); err != nil {
				t.Fatal(err)
			}
		}
		second := func(ts int64, nan metric.Kind) {
			for _, k := range metric.Kinds {
				v := fuzzSignal(seed, k, ts, inject)
				if k == nan {
					v = math.NaN()
				}
				ingest(ts, k, v)
			}
		}
		ts := int64(1)
		for i := 0; i < steps; i++ {
			op := script[i%len(script)]
			// Bits 5–7 pick a metric whose sample this second is NaN; 0 and 7
			// pick none.
			nan := metric.Kind(op >> 5)
			switch op & 7 {
			case 4: // the next second arrives before this one
				second(ts+1, nan)
				second(ts, 0)
				ts++
			case 5: // this second arrives twice
				second(ts, nan)
				second(ts, 0)
			case 6: // a short gap the sanitizer fills
				ts += 1 + int64(op>>3&3)
				second(ts, nan)
			case 7: // a gap long enough to sever the history
				ts += int64(cfg.MaxFillGap) + 1 + int64(op>>3&3)
				second(ts, nan)
			default:
				second(ts, nan)
			}
			ts++
		}
		head := ts - 1
		for _, q := range []struct {
			what     string
			tv       int64
			lookBack int
		}{
			{"head", head, 0},
			{"look-back override", head, 2 * cfg.LookBack},
			{"historical", head - 40, 0},
		} {
			for round := 0; round < 2; round++ {
				hits := p.stream.StreamingStats().MemoHits
				rs, _ := AnalyzeMonitors([]*Monitor{p.stream}, q.tv, q.lookBack, 1)
				rb, _ := AnalyzeMonitors([]*Monitor{p.batch}, q.tv, q.lookBack, 1)
				js, err := json.Marshal(rs)
				if err != nil {
					t.Fatal(err)
				}
				jb, err := json.Marshal(rb)
				if err != nil {
					t.Fatal(err)
				}
				if string(js) != string(jb) {
					t.Fatalf("%s (tv=%d, round %d): streaming report differs from batch\nstreaming: %s\nbatch:     %s", q.what, q.tv, round, js, jb)
				}
				if got := p.stream.StreamingStats().MemoHits - hits; round == 1 && got != uint64(len(metric.Kinds)) {
					t.Fatalf("%s (tv=%d): repeat analysis hit %d kernel memos, want %d", q.what, q.tv, got, len(metric.Kinds))
				}
			}
		}
	})
}

// fuzzSignal is signalAt's workload shape with hash noise in place of a
// seeded generator, so a fuzz execution allocates nothing per sample.
func fuzzSignal(seed int64, k metric.Kind, ts, inject int64) float64 {
	x := uint64(seed) ^ uint64(k)<<56 ^ uint64(ts)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	noise := float64(x>>11)/(1<<53) - 0.5
	v := float64(40+ts%23) + float64(ts%7) + noise
	if ts >= inject {
		switch k {
		case metric.CPU:
			v += 45
		case metric.Memory:
			v += float64(ts-inject) * 1.5
		}
	}
	return v
}
