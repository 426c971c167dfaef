package markov

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzPredictorSnapshot decodes arbitrary bytes as a snapshot's JSON and
// restores it. A snapshot arrives from disk or from a peer, so FromSnapshot
// must never panic; one it accepts must hold the predictor's invariants and
// exactly the snapshot's mask and cells, and a Snapshot → JSON →
// FromSnapshot round trip of it must re-encode to the same bytes and
// predict bit for bit as it does.
func FuzzPredictorSnapshot(f *testing.F) {
	seeds := []*Predictor{NewDefault(), trainedPredictor(1, 300)}
	for _, bins := range []int{2, 65} {
		p := New(bins, 0.5)
		for i := 0; i < 100; i++ {
			p.Observe(float64(i % 7))
		}
		seeds = append(seeds, p)
	}
	// A trained range grown as far as finite samples can grow it.
	extreme := trainedPredictor(2, 100)
	extreme.Observe(math.MaxFloat64)
	extreme.Observe(-math.MaxFloat64)
	seeds = append(seeds, extreme)
	for _, p := range seeds {
		raw, err := json.Marshal(p.Snapshot())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// A count under a zero total, and a total without counts under it, both
	// inside Validate's tolerance.
	f.Add([]byte(`{"bins":3,"decay":1,"lo":0,"hi":3,"range_set":true,"mask":[2,0,0],"cells":[1e-7],"row_sums":[0,0,0],"inc_weight":1}`))
	f.Add([]byte(`{"bins":1048576,"decay":1,"inc_weight":1}`))
	f.Add([]byte(`{"bins":3,"decay":0.5,"lo":0,"hi":3,"range_set":true,"mask":[0,5,0],"cells":[0,0],"row_sums":[1e-7,0,0],"inc_weight":1e12}`))
	// Refused: a mask bit at bins, one mask word short, one cell more than
	// the mask has bits, a negative cell, a row sum missing, a row sum that
	// disagrees with its cells.
	for _, body := range []string{
		`"mask":[8,0,0],"cells":[1],"row_sums":[1,0,0]`,
		`"mask":[2,0],"cells":[1],"row_sums":[1,0,0]`,
		`"mask":[2,0,0],"cells":[1,1],"row_sums":[2,0,0]`,
		`"mask":[2,0,0],"cells":[-1],"row_sums":[0,0,0]`,
		`"mask":[2,0,0],"cells":[1],"row_sums":[1,0]`,
		`"mask":[2,0,0],"cells":[1],"row_sums":[2,0,0]`,
	} {
		f.Add([]byte(`{"bins":3,"decay":1,"lo":0,"hi":3,"range_set":true,` + body + `,"inc_weight":1}`))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Snapshot
		if json.Unmarshal(raw, &s) != nil {
			return
		}
		p, err := FromSnapshot(&s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails Validate: %v", err)
		}
		checkOccupancy(t, p, &s)
		raw1, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var s1 Snapshot
		if err := json.Unmarshal(raw1, &s1); err != nil {
			t.Fatal(err)
		}
		q, err := FromSnapshot(&s1)
		if err != nil {
			t.Fatalf("snapshot of an accepted predictor refused: %v", err)
		}
		checkOccupancy(t, q, &s1)
		raw2, err := json.Marshal(q.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw1, raw2) {
			t.Fatalf("round trip re-encodes differently:\n got %s\nwant %s", raw2, raw1)
		}
		for i, v := range []float64{0, s.Lo, s.Hi, (s.Lo + s.Hi) / 2, s.Lo, 1e3, -1e3, s.Hi} {
			a, aok := p.Predict()
			b, bok := q.Predict()
			if aok != bok || math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: prediction (%v, %v), after round trip (%v, %v)", i, a, aok, b, bok)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			p.Observe(v)
			q.Observe(v)
		}
	})
}

// checkOccupancy fails unless p, restored from s, holds exactly the mask
// and the cells of s, bit for bit, and its cells have no spare capacity
// beyond the allocator's size class for them.
func checkOccupancy(t *testing.T, p *Predictor, s *Snapshot) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !slices.Equal(p.mask, s.Mask) || !slices.EqualFunc(p.cells, s.Cells, same) {
		t.Fatalf("restored mask %x cells %v, snapshot mask %x cells %v", p.mask, p.cells, s.Mask, s.Cells)
	}
	if want := cap(slices.Grow([]float64(nil), len(s.Cells))); cap(p.cells) != want {
		t.Fatalf("%d cells stored in cap %d, want cap %d", len(p.cells), cap(p.cells), want)
	}
}

// FuzzPredictorMatchesDense decodes bytes into a discretization, a decay
// and a sequence of operations, and drives the packed predictor and the
// dense reference (predict_test.go) through them side by side: samples
// around a level, excursions that grow the range past either edge (remaps),
// Break, and snapshot restores. Decay 0.5 renormalizes every ~40 samples.
// After every operation each Observe error, Predict, TransitionProb,
// RowDistribution and Snapshot must be bit-equal between the two.
func FuzzPredictorMatchesDense(f *testing.F) {
	f.Add([]byte{1, 0, 0, 10, 0, 20, 0, 30, 0, 25, 15, 3, 0, 200, 13, 0, 0, 9, 14, 0, 0, 40})
	f.Add([]byte{2, 1, 0, 128, 0, 127, 15, 250, 0, 1, 0, 255, 15, 7, 0, 64, 13, 0, 0, 100, 0, 3})
	// Decay 0.5 around one level: several renormalizations of rows with
	// many cells. Then the same with a Break, a restore and an excursion
	// every 29 operations.
	steady, mixed := []byte{1, 1}, []byte{1, 1}
	for i := range 120 {
		steady = append(steady, 0, byte(i*37))
		mixed = append(mixed, byte(i%29), byte(i*37))
	}
	f.Add(steady)
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		bins := [...]int{2, 40, 65}[int(data[0])%3]
		decay := [...]float64{DefaultDecay, 0.5, 1}[int(data[1])%3]
		pp := &predictorPair{tb: t, p: New(bins, decay), ref: newDenseModel(bins, decay),
			rng: rand.New(rand.NewSource(int64(len(data))))}
		level := 10.0
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 16 {
			case 13:
				pp.brk()
			case 14:
				pp.restore()
			case 15:
				// An excursion: the level moves up to 9× away, either sign,
				// staying finite.
				level *= float64(1+arg%8) * float64(1-2*int(arg>>7))
				level = min(max(level, -math.MaxFloat64), math.MaxFloat64)
			default:
				pp.observe(level + level*float64(int8(arg))/64)
			}
		}
	})
}
