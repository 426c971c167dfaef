package markov

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// denseModel is the reference predictor: one bins×bins matrix, every row
// resident whether or not a transition ever left it, and Predict a walk over
// every column of the current row. Predictor must be indistinguishable from
// it through every read.
type denseModel struct {
	bins                  int
	decay, lo, hi         float64
	rangeSet, hasLast     bool
	counts, rowSum        []float64
	lastBin, observations int
	incWeight             float64
}

func newDenseModel(bins int, decay float64) *denseModel {
	d := &denseModel{bins: bins, decay: decay}
	d.reset()
	return d
}

func (d *denseModel) reset() {
	d.counts = make([]float64, d.bins*d.bins)
	d.rowSum = make([]float64, d.bins)
	d.hasLast = false
	d.incWeight = 1
}

func (d *denseModel) row(i int) []float64 { return d.counts[i*d.bins : (i+1)*d.bins] }

func (d *denseModel) add(i, j int, c float64) {
	d.counts[i*d.bins+j] += c
	d.rowSum[i] += c
}

func (d *denseModel) binOf(v float64) int {
	switch {
	case d.hi <= d.lo || v <= d.lo:
		return 0
	case v >= d.hi:
		return d.bins - 1
	}
	return min(max(int((v-d.lo)/(d.hi-d.lo)*float64(d.bins)), 0), d.bins-1)
}

func (d *denseModel) binCenter(i int) float64 {
	if d.hi <= d.lo {
		return d.lo
	}
	return d.lo + (float64(i)+0.5)*((d.hi-d.lo)/float64(d.bins))
}

func (d *denseModel) ensureRange(v float64) {
	if !d.rangeSet {
		c := min(max(v, -maxEdge), maxEdge)
		span := math.Abs(c) * 0.5
		if span == 0 {
			span = 1
		}
		d.lo, d.hi, d.rangeSet = max(c-span, -maxEdge), min(c+span, maxEdge), true
		return
	}
	if v >= d.lo && v <= d.hi {
		return
	}
	newLo, newHi := d.lo, d.hi
	span := d.hi - d.lo
	lowest, highest := max(-maxEdge, newHi-math.MaxFloat64), min(maxEdge, newLo+math.MaxFloat64)
	for v < newLo && newLo > lowest {
		newLo = max(min(newLo-span, math.Nextafter(newLo, math.Inf(-1))), lowest)
		span = newHi - newLo
	}
	for v > newHi && newHi < highest {
		newHi = min(max(newHi+span, math.Nextafter(newHi, math.Inf(1))), highest)
		span = newHi - newLo
	}
	if newLo == d.lo && newHi == d.hi {
		return
	}
	// Re-add every non-zero count at the bins of its old bin centers, in
	// ascending [from][to] order.
	old := d.counts
	centers := make([]float64, d.bins)
	for i := range centers {
		centers[i] = d.binCenter(i)
	}
	hadLast, lastCenter := d.hasLast, centers[d.lastBin]
	d.lo, d.hi = newLo, newHi
	inc := d.incWeight
	d.reset()
	d.incWeight = inc
	for ij, c := range old {
		if c != 0 {
			d.add(d.binOf(centers[ij/d.bins]), d.binOf(centers[ij%d.bins]), c)
		}
	}
	if hadLast {
		d.lastBin = d.binOf(lastCenter)
	}
	d.hasLast = hadLast
}

func (d *denseModel) predict() (float64, bool) {
	if !d.hasLast {
		return 0, false
	}
	sum := d.rowSum[d.lastBin]
	if sum <= 0 {
		return 0, false
	}
	var acc float64
	for j, c := range d.row(d.lastBin) {
		if c > 0 {
			acc += c / sum * d.binCenter(j)
		}
	}
	return acc, true
}

func (d *denseModel) observe(v float64) (predErr float64, predicted bool) {
	d.ensureRange(v)
	var prevCenter float64
	hadPrev := d.hasLast
	if hadPrev {
		prevCenter = d.binCenter(d.lastBin)
	}
	if pred, ok := d.predict(); ok {
		predErr, predicted = min(math.Abs(pred-v), math.MaxFloat64), true
	} else if hadPrev {
		predErr = min(math.Abs(prevCenter-v), math.MaxFloat64)
	}
	cur := d.binOf(v)
	if hadPrev {
		if d.decay < 1 {
			d.incWeight /= d.decay
			if d.incWeight > 1e12 {
				d.renormalize()
			}
		}
		d.add(d.lastBin, cur, d.incWeight)
	}
	d.lastBin, d.hasLast = cur, true
	d.observations++
	return predErr, predicted
}

func (d *denseModel) renormalize() {
	inv := 1 / d.incWeight
	for i := range d.rowSum {
		if d.rowSum[i] == 0 {
			continue
		}
		d.rowSum[i] = 0
		row := d.row(i)
		for j := range row {
			row[j] *= inv
			d.rowSum[i] += row[j]
		}
	}
	d.incWeight = 1
}

func (d *denseModel) transitionProb(a, b float64) float64 {
	if !d.rangeSet {
		return 0
	}
	i, j := d.binOf(a), d.binOf(b)
	if d.rowSum[i] <= 0 {
		return 0
	}
	return d.counts[i*d.bins+j] / d.rowSum[i]
}

func (d *denseModel) rowDistribution(v float64) []float64 {
	if !d.rangeSet {
		return nil
	}
	i := d.binOf(v)
	if d.rowSum[i] <= 0 {
		return nil
	}
	out := make([]float64, d.bins)
	for j, c := range d.row(i) {
		out[j] = c / d.rowSum[i]
	}
	return out
}

// denseSnapshot is a snapshot in the dense reference's form: Counts holds
// bins columns for each row whose total is not 0, and nil for the rest, in
// place of the mask and cells.
type denseSnapshot struct {
	Snapshot
	Counts [][]float64 `json:"counts,omitempty"`
}

// expand returns s in the dense reference's form.
func expand(s *Snapshot) *denseSnapshot {
	d := &denseSnapshot{Snapshot: *s, Counts: make([][]float64, s.Bins)}
	d.Mask, d.Cells = nil, nil
	words, k := (s.Bins+63)/64, 0
	for i := range d.Counts {
		if s.RowSums[i] != 0 {
			d.Counts[i] = make([]float64, s.Bins)
		}
		for w, m := range s.Mask[i*words : (i+1)*words] {
			for ; m != 0; m &= m - 1 {
				if d.Counts[i] != nil {
					d.Counts[i][w<<6+bits.TrailingZeros64(m)] = s.Cells[k]
				}
				k++
			}
		}
	}
	return d
}

func (d *denseModel) snapshot() *denseSnapshot {
	s := &denseSnapshot{Snapshot: Snapshot{Bins: d.bins, Decay: d.decay, Lo: d.lo, Hi: d.hi, RangeSet: d.rangeSet,
		LastBin: d.lastBin, HasLast: d.hasLast, IncWeight: d.incWeight, Observations: d.observations}}
	s.Counts = make([][]float64, d.bins)
	for i := range s.Counts {
		if d.rowSum[i] != 0 {
			s.Counts[i] = append([]float64(nil), d.row(i)...)
		}
	}
	s.RowSums = append([]float64(nil), d.rowSum...)
	return s
}

// denseFromSnapshot loads a snapshot FromSnapshot has already accepted.
func denseFromSnapshot(s *denseSnapshot) *denseModel {
	d := newDenseModel(s.Bins, s.Decay)
	d.lo, d.hi, d.rangeSet = s.Lo, s.Hi, s.RangeSet
	d.lastBin, d.hasLast = s.LastBin, s.HasLast
	d.incWeight, d.observations = s.IncWeight, s.Observations
	for i, row := range s.Counts {
		for j, c := range row {
			if c > 0 {
				d.add(i, j, c)
			}
		}
	}
	copy(d.rowSum, s.RowSums)
	return d
}

// predictorPair drives a Predictor and the dense reference through the same
// operations and compares every read after each one.
type predictorPair struct {
	tb    testing.TB
	p     *Predictor
	ref   *denseModel
	prev  float64
	rng   *rand.Rand
	nops  int
	label string
}

func (pp *predictorPair) fail(format string, args ...any) {
	pp.tb.Helper()
	pp.tb.Fatalf("bins %d decay %v, op %d (%s): "+format,
		append([]any{pp.ref.bins, pp.ref.decay, pp.nops, pp.label}, args...)...)
}

func (pp *predictorPair) observe(v float64) (predErr float64) {
	pp.tb.Helper()
	pp.nops++
	pp.label = "observe"
	e, ok := pp.p.Observe(v)
	we, wok := pp.ref.observe(v)
	if ok != wok || math.Float64bits(e) != math.Float64bits(we) {
		pp.fail("Observe(%v) = (%v, %v), want (%v, %v)", v, e, ok, we, wok)
	}
	pp.check(v)
	pp.prev = v
	return e
}

func (pp *predictorPair) brk() {
	pp.tb.Helper()
	pp.nops++
	pp.label = "break"
	pp.p.Break()
	pp.ref.hasLast, pp.ref.lastBin = false, 0
	pp.check(pp.prev)
}

// restore replaces both sides with what the predictor's snapshot decodes to.
func (pp *predictorPair) restore() {
	pp.tb.Helper()
	pp.nops++
	pp.label = "restore"
	snap := pp.p.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		pp.tb.Fatal(err)
	}
	got, err := json.Marshal(expand(snap))
	if err != nil {
		pp.tb.Fatal(err)
	}
	want, err := json.Marshal(pp.ref.snapshot())
	if err != nil {
		pp.tb.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		pp.fail("Snapshot JSON differs from the dense reference:\n got %s\nwant %s", got, want)
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		pp.tb.Fatal(err)
	}
	if pp.p, err = FromSnapshot(&s); err != nil {
		pp.fail("restore: %v", err)
	}
	pp.ref = denseFromSnapshot(expand(&s))
	pp.check(pp.prev)
}

// check compares Predict, Range, TransitionProb, RowDistribution and the
// Snapshot, reading the rows of v, of the previous value and of a
// random point of the range.
func (pp *predictorPair) check(v float64) {
	pp.tb.Helper()
	p, ref := pp.p, pp.ref
	got, gotOK := p.Predict()
	want, wantOK := ref.predict()
	if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
		pp.fail("Predict = (%v, %v), want (%v, %v)", got, gotOK, want, wantOK)
	}
	if lo, hi := p.Range(); lo != ref.lo || hi != ref.hi {
		pp.fail("Range = [%v, %v], want [%v, %v]", lo, hi, ref.lo, ref.hi)
	}
	r := ref.lo + (ref.hi-ref.lo)*pp.rng.Float64()
	for _, ab := range [][2]float64{{pp.prev, v}, {v, pp.prev}, {r, v}, {v, r}} {
		if got, want := p.TransitionProb(ab[0], ab[1]), ref.transitionProb(ab[0], ab[1]); math.Float64bits(got) != math.Float64bits(want) {
			pp.fail("TransitionProb(%v, %v) = %v, want %v", ab[0], ab[1], got, want)
		}
	}
	for _, x := range []float64{v, pp.prev, r} {
		got, want := p.RowDistribution(x), ref.rowDistribution(x)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			pp.fail("RowDistribution(%v) = %v, want %v", x, got, want)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				pp.fail("RowDistribution(%v)[%d] = %v, want %v", x, j, got[j], want[j])
			}
		}
	}
	if err := sameSnapshot(expand(p.Snapshot()), ref.snapshot()); err != "" {
		pp.fail("Snapshot differs from the dense reference: %s", err)
	}
}

// sameSnapshot compares two snapshots field by field, floats by their bits:
// equal snapshots encode to the same JSON bytes, and comparing the structs
// spares the encoder on every operation. restore compares the bytes.
func sameSnapshot(a, b *denseSnapshot) string {
	bits := math.Float64bits
	switch {
	case a.Bins != b.Bins || bits(a.Decay) != bits(b.Decay) || bits(a.IncWeight) != bits(b.IncWeight):
		return fmt.Sprintf("bins/decay/inc_weight %d/%v/%v, want %d/%v/%v", a.Bins, a.Decay, a.IncWeight, b.Bins, b.Decay, b.IncWeight)
	case bits(a.Lo) != bits(b.Lo) || bits(a.Hi) != bits(b.Hi) || a.RangeSet != b.RangeSet:
		return fmt.Sprintf("range [%v, %v] %v, want [%v, %v] %v", a.Lo, a.Hi, a.RangeSet, b.Lo, b.Hi, b.RangeSet)
	case a.LastBin != b.LastBin || a.HasLast != b.HasLast || a.Observations != b.Observations:
		return fmt.Sprintf("last bin %d %v, %d observations, want %d %v, %d", a.LastBin, a.HasLast, a.Observations, b.LastBin, b.HasLast, b.Observations)
	case len(a.Counts) != len(b.Counts) || len(a.RowSums) != len(b.RowSums):
		return fmt.Sprintf("%d rows, %d sums, want %d, %d", len(a.Counts), len(a.RowSums), len(b.Counts), len(b.RowSums))
	}
	for i := range a.RowSums {
		if bits(a.RowSums[i]) != bits(b.RowSums[i]) {
			return fmt.Sprintf("row_sums[%d] = %v, want %v", i, a.RowSums[i], b.RowSums[i])
		}
	}
	for i := range a.Counts {
		if (a.Counts[i] == nil) != (b.Counts[i] == nil) || len(a.Counts[i]) != len(b.Counts[i]) {
			return fmt.Sprintf("row %d = %v, want %v", i, a.Counts[i], b.Counts[i])
		}
		for j := range a.Counts[i] {
			if bits(a.Counts[i][j]) != bits(b.Counts[i][j]) {
				return fmt.Sprintf("counts[%d][%d] = %v, want %v", i, j, a.Counts[i][j], b.Counts[i][j])
			}
		}
	}
	return ""
}

// TestPredictMatchesDenseWalk drives predictors of every mask shape (one
// partial word, exactly one word, one bit past it, several words, MaxBins)
// through range growth up and down, renormalization, Break and snapshot
// restores, comparing every read against the dense reference after each
// operation.
func TestPredictMatchesDenseWalk(t *testing.T) {
	for _, bins := range []int{2, 40, 64, 65, 130, MaxBins} {
		// Decay 0.5 doubles the increment weight per sample, forcing a
		// renormalize every ~40 observations.
		for _, decay := range []float64{DefaultDecay, 0.5} {
			rng := rand.New(rand.NewSource(int64(bins)*7 + int64(decay*10)))
			pp := &predictorPair{tb: t, p: New(bins, decay), ref: newDenseModel(bins, decay), rng: rng}
			var remaps, renorms, breaks, restores int
			level := 50.0
			for i := 0; i < 3000; i++ {
				switch r := rng.Float64(); {
				case r < 0.005:
					pp.brk()
					breaks++
				case r < 0.01:
					pp.restore()
					restores++
				case r < 0.02:
					// An excursion past the range, up or down.
					level *= (1 + 4*rng.Float64()) * float64(1-2*rng.Intn(2))
				}
				lo, hi := pp.p.Range()
				w := pp.p.incWeight
				pp.observe(level + 10*math.Sin(float64(i)/7) + rng.NormFloat64())
				if nlo, nhi := pp.p.Range(); i > 0 && (nlo != lo || nhi != hi) {
					remaps++
				}
				if pp.p.incWeight < w {
					renorms++
				}
			}
			if err := pp.p.Validate(); err != nil {
				t.Fatal(err)
			}
			if remaps == 0 || breaks == 0 || restores == 0 || (decay < 0.9 && renorms == 0) {
				t.Fatalf("bins=%d decay=%v: stream missed a path: remaps=%d renorms=%d breaks=%d restores=%d",
					bins, decay, remaps, renorms, breaks, restores)
			}
		}
	}
}

// TestExtremeSamplesKeepRangeFinite feeds finite samples at and near
// ±MaxFloat64, first and after training, through the predictor and the
// dense reference. The range edges, its width and every prediction error
// stay finite, and the snapshot marshals and round-trips (restore checks
// the JSON bytes against the reference's and decodes them).
func TestExtremeSamplesKeepRangeFinite(t *testing.T) {
	const huge = math.MaxFloat64
	for _, tc := range []struct {
		name    string
		trained bool
		vs      []float64
	}{
		{"MaxFloat64 first", false, []float64{huge, -huge, huge, 1, -huge}},
		{"-MaxFloat64 first", false, []float64{-huge, huge, 0, huge / 3}},
		{"trained, then both", true, []float64{huge, -huge, 50, -huge, huge, huge}},
		{"trained, near the cap", true, []float64{huge / 1.5, -huge / 1.5, huge / 2, -huge / 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			pp := &predictorPair{tb: t, p: NewDefault(), ref: newDenseModel(DefaultBins, DefaultDecay), rng: rng}
			if tc.trained {
				for i := range 200 {
					pp.observe(50 + 10*math.Sin(float64(i)/9))
				}
			}
			for _, v := range tc.vs {
				if e := pp.observe(v); math.IsInf(e, 0) {
					t.Fatalf("%v: prediction error %v", v, e)
				}
				if lo, hi := pp.p.Range(); math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsInf(hi-lo, 0) || hi <= lo {
					t.Fatalf("%v: range [%v, %v]", v, lo, hi)
				}
				pp.restore()
			}
		})
	}
}
