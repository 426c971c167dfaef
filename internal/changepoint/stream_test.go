package changepoint

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"fchain/internal/timeseries"
)

// tableConfidence is the table-driven counterpart of bootstrapConfidence
// for a whole segment whose CUSUM range is sdiff.
func tableConfidence(vals []float64, sdiff float64, k int) float64 {
	return rankConfidence(sdiff, timeseries.Std(vals), len(vals), nullTable(len(vals), k))
}

// shadowStream replays Stream's exact arithmetic from plain slices, so the
// deque-based sliding extrema can be checked for bit-equality against a
// direct scan over the same floats.
type shadowStream struct {
	window int
	count  int64
	mean   float64
	m2     float64
	vals   []float64
	cusum  []float64 // reference CUSUM value at each index (once frozen)
	ref    float64
	refSet bool
	cum    float64
}

func (sh *shadowStream) push(v float64) {
	sh.count++
	d := v - sh.mean
	sh.mean += d / float64(sh.count)
	sh.m2 += d * (v - sh.mean)
	sh.vals = append(sh.vals, v)
	if !sh.refSet {
		sh.cusum = append(sh.cusum, math.NaN())
		if len(sh.vals) >= sh.window {
			sh.ref = sh.mean
			sh.refSet = true
			sh.cum = 0
		}
		return
	}
	sh.cum += v - sh.ref
	sh.cusum = append(sh.cusum, sh.cum)
}

// TestStreamMatchesBatchScan is the incremental-vs-batch differential test:
// after every push, the stream's O(1)-maintained window min/max and CUSUM
// extrema must equal a from-scratch scan over the same values — exactly,
// since both sides compare the identical floats.
func TestStreamMatchesBatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, window := range []int{2, 7, 32, 120} {
		s := NewStream(window)
		sh := &shadowStream{window: window}
		for i := 0; i < 5*window+37; i++ {
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = rng.NormFloat64() * 10
			case 1:
				v = float64(rng.Intn(5)) // duplicates
			case 2:
				v = 50 + rng.Float64() // level shift region
			default:
				v = -v0(rng)
			}
			s.Push(v)
			sh.push(v)

			lo := len(sh.vals) - window
			if lo < 0 {
				lo = 0
			}
			win := sh.vals[lo:]
			wantLo, wantHi := win[0], win[0]
			for _, w := range win[1:] {
				wantLo = math.Min(wantLo, w)
				wantHi = math.Max(wantHi, w)
			}
			gotLo, gotHi, ok := s.WindowMinMax()
			if !ok || gotLo != wantLo || gotHi != wantHi {
				t.Fatalf("window=%d step=%d: min/max (%v,%v) want (%v,%v)", window, i, gotLo, gotHi, wantLo, wantHi)
			}

			if s.Mean() != sh.mean || s.Count() != sh.count {
				t.Fatalf("window=%d step=%d: welford mean %v want %v", window, i, s.Mean(), sh.mean)
			}

			got, gok := s.CusumRange()
			if !sh.refSet {
				if gok {
					t.Fatalf("window=%d step=%d: CusumRange ready before reference froze", window, i)
				}
				continue
			}
			cwin := sh.cusum[lo:]
			var cmax, cmin float64
			have := false
			for _, c := range cwin {
				if math.IsNaN(c) {
					continue // pre-freeze index still in window
				}
				if !have {
					cmax, cmin, have = c, c, true
					continue
				}
				cmax = math.Max(cmax, c)
				cmin = math.Min(cmin, c)
			}
			if !have {
				continue
			}
			if !gok || got != cmax-cmin {
				t.Fatalf("window=%d step=%d: cusum range %v want %v", window, i, got, cmax-cmin)
			}
		}
	}
}

func v0(rng *rand.Rand) float64 { return rng.Float64() * 3 }

// TestStreamConfidenceDetectsShift checks the streaming detector verdict:
// near-zero confidence while the stream holds steady noise, high confidence
// once a sustained level shift crosses the window.
func TestStreamConfidenceDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStream(100)
	for i := 0; i < 300; i++ {
		s.Push(40 + rng.NormFloat64())
	}
	conf, ok := s.Confidence(200)
	if !ok {
		t.Fatal("confidence unavailable on a warm stream")
	}
	if conf >= 0.99 {
		t.Fatalf("steady noise scored confidence %v", conf)
	}
	for i := 0; i < 60; i++ {
		s.Push(90 + rng.NormFloat64())
	}
	conf, ok = s.Confidence(200)
	if !ok || conf < 0.95 {
		t.Fatalf("sustained shift scored confidence %v (ok=%v), want >= 0.95", conf, ok)
	}
	if r, ok := s.CusumRange(); !ok || r <= 0 {
		t.Fatalf("cusum range %v after shift", r)
	}
}

func TestStreamResetAndRebase(t *testing.T) {
	s := NewStream(10)
	for i := 0; i < 40; i++ {
		s.Push(float64(i))
	}
	if s.Count() != 40 || s.WindowLen() != 10 {
		t.Fatalf("count=%d windowLen=%d", s.Count(), s.WindowLen())
	}
	s.Rebase()
	if _, ok := s.CusumRange(); ok {
		t.Fatal("cusum range should be empty right after rebase")
	}
	s.Push(100)
	if _, ok := s.CusumRange(); !ok {
		t.Fatal("cusum range should resume after rebase + push")
	}
	s.Reset()
	if s.Count() != 0 || s.WindowLen() != 0 {
		t.Fatal("reset left state behind")
	}
	if _, _, ok := s.WindowMinMax(); ok {
		t.Fatal("min/max should be empty after reset")
	}
	if s.Bytes() <= 0 {
		t.Fatal("reset should keep buffers, so Bytes stays positive")
	}
}

// TestDetectThresholdsDeterministic: table-driven detection is a pure
// function of the window — identical across calls and across goroutines
// racing to build the shared tables.
func TestDetectThresholdsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 10 + rng.NormFloat64()
		if i >= 60 {
			vals[i] += 25
		}
	}
	cfg := Config{Thresholds: 200, Confidence: 0.95}
	want := Detect(vals, cfg)
	if len(want) == 0 {
		t.Fatal("table-driven detection missed a 25-sigma step")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Detect(vals, cfg)
			if len(got) != len(want) {
				t.Errorf("goroutine saw %d points, want %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("point %d differs: %+v vs %+v", i, got[i], want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestDetectThresholdsAgreesWithBootstrap: on an unambiguous step the two
// significance tests must select the same change point, and on constant
// input both must stay silent.
func TestDetectThresholdsAgreesWithBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 20 + rng.NormFloat64()*0.5
		if i >= 50 {
			vals[i] += 30
		}
	}
	boot := Detect(vals, Config{Bootstraps: 200, Rand: rand.New(rand.NewSource(1))})
	tbl := Detect(vals, Config{Thresholds: 200})
	if len(boot) == 0 || len(tbl) == 0 {
		t.Fatalf("step missed: bootstrap=%d table=%d points", len(boot), len(tbl))
	}
	if boot[0].Index != tbl[0].Index {
		// Both must land on the step; secondary points may differ at the
		// significance margin.
		t.Fatalf("primary point differs: bootstrap idx %d, table idx %d", boot[0].Index, tbl[0].Index)
	}
	flat := make([]float64, 60)
	for i := range flat {
		flat[i] = 7
	}
	if pts := Detect(flat, Config{Thresholds: 200}); len(pts) != 0 {
		t.Fatalf("constant series produced %d table-mode points", len(pts))
	}
}

// TestTableFalsePositiveRate: at confidence 0.95 the table test should pass
// white noise through quietly — well under a 15% top-level trip rate over
// seeded trials (the bootstrap's own behavior on iid input).
func TestTableFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trips := 0
	const trials = 200
	vals := make([]float64, 80)
	for trial := 0; trial < trials; trial++ {
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		idx, sdiff := cusumPeak(vals)
		if idx <= 0 || idx >= len(vals)-1 {
			continue
		}
		if tableConfidence(vals, sdiff, 200) >= 0.95 {
			trips++
		}
	}
	if trips > trials*15/100 {
		t.Fatalf("table test tripped on %d/%d white-noise windows", trips, trials)
	}
}
