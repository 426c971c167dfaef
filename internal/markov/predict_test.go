package markov

import (
	"math"
	"math/rand"
	"testing"
)

// densePredict is the reference Predict: a walk over every column of the
// chain's current row. The occupancy mask must make Predict return exactly
// these bits.
func densePredict(p *Predictor) (float64, bool) {
	if !p.hasLast {
		return 0, false
	}
	sum := p.rowSum[p.lastBin]
	if sum <= 0 {
		return 0, false
	}
	var acc float64
	for j, c := range p.row(p.lastBin) {
		if c > 0 {
			acc += c / sum * p.binCenter(j)
		}
	}
	return acc, true
}

// checkPredict fails unless Predict equals densePredict bit for bit and
// every non-zero count has its occupancy bit set.
func checkPredict(t *testing.T, p *Predictor, step string) {
	t.Helper()
	got, gotOK := p.Predict()
	want, wantOK := densePredict(p)
	if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Predict = (%v, %v), dense walk = (%v, %v)", step, got, gotOK, want, wantOK)
	}
	for ij, c := range p.counts {
		i, j := ij/p.bins, ij%p.bins
		if c != 0 && p.mask[i*p.words+j>>6]&(1<<(j&63)) == 0 {
			t.Fatalf("%s: count [%d][%d]=%v has no occupancy bit", step, i, j, c)
		}
	}
}

// TestPredictMatchesDenseWalk drives predictors of every mask shape (one
// partial word, exactly one word, one bit past it, several words) through
// range growth, renormalization, Break and snapshot restores, comparing
// Predict against the dense walk after every Observe.
func TestPredictMatchesDenseWalk(t *testing.T) {
	for _, bins := range []int{2, 40, 64, 65, 130} {
		// Decay 0.5 doubles the increment weight per sample, forcing a
		// renormalize every ~40 observations.
		for _, decay := range []float64{DefaultDecay, 0.5} {
			rng := rand.New(rand.NewSource(int64(bins)*7 + int64(decay*10)))
			p := New(bins, decay)
			var remaps, renorms, breaks, restores int
			level := 50.0
			for i := 0; i < 3000; i++ {
				switch r := rng.Float64(); {
				case r < 0.005:
					p.Break()
					breaks++
				case r < 0.01:
					q, err := FromSnapshot(p.Snapshot())
					if err != nil {
						t.Fatalf("bins=%d decay=%v step %d: restore: %v", bins, decay, i, err)
					}
					checkPredict(t, q, "restored")
					p = q
					restores++
				case r < 0.02:
					// An excursion past the range, up or down.
					level *= (1 + 4*rng.Float64()) * float64(1-2*rng.Intn(2))
				}
				lo, hi := p.Range()
				w := p.incWeight
				p.Observe(level + 10*math.Sin(float64(i)/7) + rng.NormFloat64())
				if nlo, nhi := p.Range(); i > 0 && (nlo != lo || nhi != hi) {
					remaps++
				}
				if p.incWeight < w {
					renorms++
				}
				checkPredict(t, p, "observe")
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if remaps == 0 || breaks == 0 || restores == 0 || (decay < 0.9 && renorms == 0) {
				t.Fatalf("bins=%d decay=%v: stream missed a path: remaps=%d renorms=%d breaks=%d restores=%d",
					bins, decay, remaps, renorms, breaks, restores)
			}
		}
	}
}
