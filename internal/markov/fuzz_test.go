package markov

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzPredictorSnapshot feeds arbitrary bytes to the checkpoint decoder. A
// snapshot arrives from disk or from a peer, so FromSnapshot must never
// panic; one it accepts must hold the predictor's invariants, and a
// Snapshot → FromSnapshot round trip of it must predict bit for bit as it
// does.
func FuzzPredictorSnapshot(f *testing.F) {
	seeds := []*Predictor{NewDefault(), trainedPredictor(1, 300)}
	for _, bins := range []int{2, 65} {
		p := New(bins, 0.5)
		for i := 0; i < 100; i++ {
			p.Observe(float64(i % 7))
		}
		seeds = append(seeds, p)
	}
	for _, p := range seeds {
		raw, err := json.Marshal(p.Snapshot())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"bins":3,"decay":1,"lo":0,"hi":3,"range_set":true,"counts":[[0,1e-7,0]],"row_sums":[0,0,0],"inc_weight":1}`))
	f.Add([]byte(`{"bins":1048576,"decay":1,"inc_weight":1}`))
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
		q, err := FromSnapshot(p.Snapshot())
		if err != nil {
			t.Fatalf("snapshot of an accepted predictor refused: %v", err)
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
