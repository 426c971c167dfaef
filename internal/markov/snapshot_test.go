package markov

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
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
	// row is an occupied row of base and first the index of its first cell.
	row := slices.IndexFunc(base.rowSum, func(sum float64) bool { return sum > 0 })
	first := int(base.start[row])
	cases := map[string]func(*Snapshot){
		"bins too small": func(s *Snapshot) { s.Bins = 1 },
		"bins too large": func(s *Snapshot) { s.Bins = MaxBins + 1 },
		"bad decay":      func(s *Snapshot) { s.Decay = 1.5 },
		"inverted range": func(s *Snapshot) { s.Lo, s.Hi = s.Hi, s.Lo },
		"last bin range": func(s *Snapshot) { s.LastBin = s.Bins },
		"bad inc weight": func(s *Snapshot) { s.IncWeight = math.NaN() },
		"negative obs":   func(s *Snapshot) { s.Observations = -1 },
		// A bit at column Bins, with a zero cell for it at the end of its
		// row, so only the bit is wrong.
		"mask bit at bins": func(s *Snapshot) {
			s.Cells = slices.Insert(s.Cells, int(base.start[row+1]), 0)
			s.Mask[row] |= 1 << s.Bins
		},
		"mask bit at 63":        func(s *Snapshot) { s.Cells = append(s.Cells, 0); s.Mask[len(s.Mask)-1] |= 1 << 63 },
		"mask word short":       func(s *Snapshot) { s.Mask = s.Mask[:len(s.Mask)-1] },
		"mask word over":        func(s *Snapshot) { s.Mask = append(s.Mask, 0) },
		"no mask":               func(s *Snapshot) { s.Mask = nil },
		"cell past the mask":    func(s *Snapshot) { s.Cells = append(s.Cells, 0) },
		"mask bit with no cell": func(s *Snapshot) { s.Cells = s.Cells[:len(s.Cells)-1] },
		"negative cell":         func(s *Snapshot) { s.Cells[first] = -s.Cells[first] },
		"nan cell":              func(s *Snapshot) { s.Cells[first] = math.NaN() },
		"inf cell":              func(s *Snapshot) { s.Cells[first] = math.Inf(1) },
		"row sum short":         func(s *Snapshot) { s.RowSums = s.RowSums[:len(s.RowSums)-1] },
		"no row sums":           func(s *Snapshot) { s.RowSums = nil },
		"row sum over cells":    func(s *Snapshot) { s.RowSums[row] *= 2 },
		"row sum, no cells":     func(s *Snapshot) { s.RowSums[len(s.RowSums)-1] = 1 },
		"negative row sum":      func(s *Snapshot) { s.RowSums[row] = -s.RowSums[row] },
		"nan row sum":           func(s *Snapshot) { s.RowSums[row] = math.NaN() },
		"inf row sum":           func(s *Snapshot) { s.RowSums[row] = math.Inf(1) },
	}
	for name, corrupt := range cases {
		s := base.Snapshot()
		if _, err := FromSnapshot(s); err != nil {
			t.Fatalf("%s: the uncorrupted snapshot is refused: %v", name, err)
		}
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
	p, err := FromSnapshot(&Snapshot{Bins: 4, Decay: 1, Lo: -2, Hi: -2 + math.Ldexp(1, -52), RangeSet: true,
		Mask: make([]uint64, 4), RowSums: make([]float64, 4), IncWeight: 1})
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
