package markov

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzPredictorSnapshot feeds arbitrary bytes to the checkpoint decoder. A
// snapshot arrives from disk or from a peer, so FromSnapshot must never
// panic; one it accepts must hold the predictor's invariants and store
// exactly the rows holding a count, and a Snapshot → JSON → FromSnapshot
// round trip of it must re-encode to the same bytes and predict bit for bit
// as it does.
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
	f.Add([]byte(`{"bins":3,"decay":1,"lo":0,"hi":3,"range_set":true,"counts":[[0,1e-7,0]],"row_sums":[0,0,0],"inc_weight":1}`))
	f.Add([]byte(`{"bins":1048576,"decay":1,"inc_weight":1}`))
	// A total restored without counts under it, inside Validate's tolerance.
	f.Add([]byte(`{"bins":3,"decay":0.5,"lo":0,"hi":3,"range_set":true,"counts":[null,[0,0,0]],"row_sums":[1e-7,0,0],"inc_weight":1e12}`))
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

// checkOccupancy fails unless p, restored from s, stores exactly the rows of
// s that hold a count — every non-nil row, except a zero row a restored
// total carries — and its slab has no spare capacity.
func checkOccupancy(t *testing.T, p *Predictor, s *Snapshot) {
	t.Helper()
	rows := 0
	for i, slot := range p.slot {
		var row []float64
		if i < len(s.Counts) {
			row = s.Counts[i]
		}
		holds := false
		for _, c := range row {
			holds = holds || c > 0
		}
		if (slot != 0) != holds {
			t.Fatalf("row %d: stored=%v, snapshot row %v", i, slot != 0, row)
		}
		if slot != 0 {
			rows++
		}
	}
	if len(p.counts) != rows*p.bins || cap(p.counts) != len(p.counts) {
		t.Fatalf("%d rows stored in len %d cap %d, want %d", rows, len(p.counts), cap(p.counts), rows*p.bins)
	}
}
