package markov

import (
	_ "embed"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

func trainedPredictor(seed int64, n int) *Predictor {
	rng := rand.New(rand.NewSource(seed))
	p := NewDefault()
	for i := 0; i < n; i++ {
		p.Observe(50 + 10*math.Sin(float64(i)/9) + rng.Float64()*2)
	}
	return p
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := trainedPredictor(1, 500)
	restored, err := FromSnapshot(p.Snapshot())
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	// The restored predictor must behave identically: same prediction
	// errors for the same future stream.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		v := 50 + 10*math.Sin(float64(i)/9) + rng.Float64()*2
		e1, ok1 := p.Observe(v)
		e2, ok2 := restored.Observe(v)
		if ok1 != ok2 || math.Abs(e1-e2) > 1e-12 {
			t.Fatalf("step %d diverged: (%v,%v) vs (%v,%v)", i, e1, ok1, e2, ok2)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	p := trainedPredictor(3, 300)
	raw, err := json.Marshal(p.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored, err := FromSnapshot(&s)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	e1, _ := p.Observe(55)
	e2, _ := restored.Observe(55)
	if math.Abs(e1-e2) > 1e-12 {
		t.Fatalf("diverged after JSON round trip: %v vs %v", e1, e2)
	}
}

func TestSnapshotSharesNoStorage(t *testing.T) {
	p := trainedPredictor(4, 200)
	s := p.Snapshot()
	p.Observe(1e6) // mutate the original
	restored, err := FromSnapshot(s)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("restored predictor invalid after source mutation: %v", err)
	}
}

func TestFromSnapshotRejectsCorruption(t *testing.T) {
	base := trainedPredictor(5, 200)
	cases := map[string]func(*Snapshot){
		"nil counts row len":  func(s *Snapshot) { s.Counts[0] = []float64{1} },
		"negative count":      func(s *Snapshot) { s.Counts[0] = make([]float64, s.Bins); s.Counts[0][0] = -1 },
		"nan count":           func(s *Snapshot) { s.Counts[0] = make([]float64, s.Bins); s.Counts[0][0] = math.NaN() },
		"bins too small":      func(s *Snapshot) { s.Bins = 1 },
		"bins too large":      func(s *Snapshot) { s.Bins = MaxBins + 1 },
		"counts, zero total":  func(s *Snapshot) { s.Counts[0] = make([]float64, s.Bins); s.Counts[0][0] = 1e-9; s.RowSums[0] = 0 },
		"bad decay":           func(s *Snapshot) { s.Decay = 1.5 },
		"inverted range":      func(s *Snapshot) { s.Lo, s.Hi = s.Hi, s.Lo },
		"last bin range":      func(s *Snapshot) { s.LastBin = s.Bins },
		"bad inc weight":      func(s *Snapshot) { s.IncWeight = math.NaN() },
		"negative obs":        func(s *Snapshot) { s.Observations = -1 },
		"too many count rows": func(s *Snapshot) { s.Counts = append(s.Counts, nil) },
	}
	for name, corrupt := range cases {
		s := base.Snapshot()
		corrupt(s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	if _, err := FromSnapshot(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestBreakSeversChainNotKnowledge(t *testing.T) {
	p := trainedPredictor(6, 400)
	before := p.Snapshot()
	p.Break()
	after := p.Snapshot()
	if after.HasLast {
		t.Error("Break did not clear chain position")
	}
	if after.Observations != before.Observations {
		t.Error("Break discarded observation count")
	}
	// Learned transitions must survive: the first post-break observation
	// has no previous state, the second predicts from learned counts again.
	if _, ok := p.Observe(55); ok {
		t.Error("first observation after Break should have no prediction")
	}
	if _, ok := p.Observe(55); !ok {
		t.Error("second observation after Break should predict again")
	}
}

// TestSnapshotRestoresPredictionsExactly pins that a restored predictor is
// the one it was taken from, not a last bit away: the running row totals
// travel with the counts, so every later prediction error is bit-identical.
func TestSnapshotRestoresPredictionsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	live := NewDefault()
	for i := 0; i < 500; i++ {
		live.Observe(60 + rng.NormFloat64())
	}
	raw, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	restored, err := FromSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		v := 60 + rng.NormFloat64()
		a, _ := live.Observe(v)
		b, _ := restored.Observe(v)
		if a != b {
			t.Fatalf("step %d: live prediction error %v, restored %v", i, a, b)
		}
	}
	snap.RowSums[0] = math.NaN()
	if _, err := FromSnapshot(&snap); err == nil {
		t.Error("FromSnapshot accepted a NaN row total")
	}
}

// TestNarrowRangeGrows pins range growth on a range narrower than half an
// ulp of its edge, which a crafted snapshot can carry: stepping the edge
// by the span rounded back onto the same edge, so covering a value outside
// the range never finished.
func TestNarrowRangeGrows(t *testing.T) {
	p, err := FromSnapshot(&Snapshot{Bins: 4, Decay: 1, Lo: -2, Hi: -2 + math.Ldexp(1, -52), RangeSet: true, IncWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Observe(-3)
		p.Observe(3)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("range growth did not terminate")
	}
	if lo, hi := p.Range(); lo > -3 || hi < 3 {
		t.Errorf("range [%v, %v] does not cover the observed values", lo, hi)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

// legacyDriftSnapshot is a checkpointed predictor in the format written
// before the drift state behind the retired trend hint was removed: beside
// the model it carries three drift fields the current format no longer
// writes.
//
//go:embed legacy_drift_snapshot.json
var legacyDriftSnapshot []byte

// TestSnapshotWithoutDriftFields: old checkpoints still load. A snapshot
// carrying the retired drift fields restores and then predicts bit for bit
// like the same snapshot with those keys removed, so the fields were never
// part of the model.
func TestSnapshotWithoutDriftFields(t *testing.T) {
	restore := func(raw []byte) *Predictor {
		t.Helper()
		var s Snapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		p, err := FromSnapshot(&s)
		if err != nil {
			t.Fatalf("FromSnapshot: %v", err)
		}
		return p
	}
	legacy := restore(legacyDriftSnapshot)

	// Strip every key the current format does not write: exactly the three
	// drift fields.
	var fields, known map[string]json.RawMessage
	if err := json.Unmarshal(legacyDriftSnapshot, &fields); err != nil {
		t.Fatal(err)
	}
	current, err := json.Marshal(legacy.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(current, &known); err != nil {
		t.Fatal(err)
	}
	var dropped []string
	for k := range fields {
		if _, ok := known[k]; !ok {
			delete(fields, k)
			dropped = append(dropped, k)
		}
	}
	if len(dropped) != 3 {
		t.Fatalf("legacy snapshot has retired fields %v, want the three drift fields", dropped)
	}
	stripped, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	plain := restore(stripped)

	for i := 0; i < 20; i++ {
		pl, okl := legacy.Predict()
		pp, okp := plain.Predict()
		if okl != okp || math.Float64bits(pl) != math.Float64bits(pp) {
			t.Fatalf("step %d: legacy predicts (%v, %v), stripped (%v, %v)", i, pl, okl, pp, okp)
		}
		v := 12 + float64(i%4)*2.5 + float64(i)*0.3
		el, _ := legacy.Observe(v)
		ep, _ := plain.Observe(v)
		if math.Float64bits(el) != math.Float64bits(ep) {
			t.Fatalf("step %d: legacy error %v, stripped %v", i, el, ep)
		}
	}
}
