package eval

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"fchain/internal/baseline"
)

func TestScore(t *testing.T) {
	tests := []struct {
		name   string
		pinned []string
		truth  []string
		want   Outcome
	}{
		{"exact", []string{"a"}, []string{"a"}, Outcome{TP: 1}},
		{"miss", nil, []string{"a"}, Outcome{FN: 1}},
		{"false alarm", []string{"b"}, []string{"a"}, Outcome{FP: 1, FN: 1}},
		{"partial multi", []string{"a", "c"}, []string{"a", "b"}, Outcome{TP: 1, FP: 1, FN: 1}},
		{"duplicates ignored", []string{"a", "a"}, []string{"a"}, Outcome{TP: 1}},
		{"empty truth", []string{"a"}, nil, Outcome{FP: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Score(tt.pinned, tt.truth); got != tt.want {
				t.Errorf("Score = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestPrecisionRecall(t *testing.T) {
	o := Outcome{TP: 3, FP: 1, FN: 2}
	if got := o.Precision(); got != 0.75 {
		t.Errorf("Precision = %v", got)
	}
	if got := o.Recall(); got != 0.6 {
		t.Errorf("Recall = %v", got)
	}
	var zero Outcome
	if zero.Precision() != 0 {
		t.Error("zero outcome should have 0 precision")
	}
	if zero.Recall() != 1 {
		t.Error("zero outcome (empty truth, nothing pinpointed) should have vacuous recall 1")
	}
}

// TestTrapScoring pins the false-alarm-trap scoring path: an empty ground
// truth means any culprit is a false positive, recall is vacuously 1, and
// precision is defined (0 when anyone was blamed, the 0/0 convention
// otherwise).
func TestTrapScoring(t *testing.T) {
	silent := Score(nil, []string{})
	if silent != (Outcome{}) {
		t.Fatalf("silent trap outcome = %+v, want all-zero", silent)
	}
	if silent.Recall() != 1 {
		t.Errorf("silent trap recall = %v, want vacuous 1", silent.Recall())
	}
	if silent.Precision() != 0 {
		t.Errorf("silent trap precision = %v, want 0 (0/0 convention)", silent.Precision())
	}

	blamed := Score([]string{"m01-000", "m02-003"}, []string{})
	if blamed.TP != 0 || blamed.FP != 2 || blamed.FN != 0 {
		t.Fatalf("blamed trap outcome = %+v, want 2 pure false positives", blamed)
	}
	if blamed.Precision() != 0 {
		t.Errorf("blamed trap precision = %v, want 0", blamed.Precision())
	}
	if blamed.Recall() != 1 {
		t.Errorf("blamed trap recall = %v, want vacuous 1 (nothing was missable)", blamed.Recall())
	}

	// Aggregation across a campaign: trap FPs dilute precision but leave
	// recall untouched.
	agg := Outcome{TP: 3, FN: 1}
	agg.Add(blamed)
	if got := agg.Precision(); got != 0.6 {
		t.Errorf("aggregate precision = %v, want 0.6", got)
	}
	if got := agg.Recall(); got != 0.75 {
		t.Errorf("aggregate recall = %v, want 0.75", got)
	}
}

// Property: precision and recall always lie in [0,1] and score conserves
// counts.
func TestScoreProperties(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	f := func(pinnedMask, truthMask uint8) bool {
		var pinned, truth []string
		for i, n := range names {
			if pinnedMask&(1<<i) != 0 {
				pinned = append(pinned, n)
			}
			if truthMask&(1<<i) != 0 {
				truth = append(truth, n)
			}
		}
		o := Score(pinned, truth)
		if o.TP+o.FP != len(pinned) {
			return false
		}
		if o.TP+o.FN != len(truth) {
			return false
		}
		p, r := o.Precision(), o.Recall()
		return p >= 0 && p <= 1 && r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunTrialProducesCompleteBundle(t *testing.T) {
	b := Benchmarks()[0] // rubis
	tb, err := RunTrial(b, b.Faults[1] /* cpuhog */, 1, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Trial.TV <= tb.Inject {
		t.Errorf("tv %d should follow injection %d", tb.Trial.TV, tb.Inject)
	}
	if len(tb.Truth) == 0 {
		t.Error("no ground truth")
	}
	if tb.Trial.Topology == nil || tb.Trial.Topology.Empty() {
		t.Error("topology missing")
	}
	if tb.Trial.Deps == nil || tb.Trial.Deps.Empty() {
		t.Error("rubis dependency discovery should succeed")
	}
	if tb.Trial.Sim == nil {
		t.Error("live sim missing")
	}
	for _, comp := range tb.Trial.Components {
		s := tb.Trial.SeriesOf(comp, 1)
		if s == nil || s.End() != tb.Trial.TV+1 {
			t.Errorf("%s series should end at tv+1", comp)
		}
	}
}

func TestRunTrialSystemSDepsEmpty(t *testing.T) {
	b := Benchmarks()[1]
	tb, err := RunTrial(b, b.Faults[1], 1, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Trial.Deps.Empty() {
		t.Error("System S streaming traffic should defeat dependency discovery")
	}
}

func TestRunTrialDeterministic(t *testing.T) {
	b := Benchmarks()[0]
	a1, err := RunTrial(b, b.Faults[0], 2, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunTrial(b, b.Faults[0], 2, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Inject != a2.Inject || a1.Trial.TV != a2.Trial.TV {
		t.Errorf("trials differ: inject %d/%d tv %d/%d", a1.Inject, a2.Inject, a1.Trial.TV, a2.Trial.TV)
	}
}

func TestCampaignSkipsNoViolation(t *testing.T) {
	// With a tiny horizon no violation can be reached, so every run is
	// counted as skipped rather than failing the sweep.
	b := Benchmarks()[0]
	s := Sweep{
		Rows:    faultRows(b, b.Faults[0]),
		Columns: schemeColumns(&baseline.FChain{}),
		Runs:    2,
		Config:  RunConfig{Horizon: 5},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr := res.Rows[0]; rr.Trials != 0 || rr.Skipped != 2 {
		t.Errorf("expected all runs skipped: trials=%d skipped=%d", rr.Trials, rr.Skipped)
	}
}

func TestEvaluateSchemeAggregates(t *testing.T) {
	b := Benchmarks()[0]
	s := Sweep{Rows: faultRows(b, b.Faults[1]), Columns: schemeColumns(&baseline.FChain{}), Runs: 2}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Rows[0]
	if rr.Skipped > 0 || rr.Trials != 2 {
		t.Fatalf("sweep trials=%d skipped=%d", rr.Trials, rr.Skipped)
	}
	o := rr.Cells[0].Outcome
	if o.TP+o.FN != 2 {
		t.Errorf("two single-fault trials should have TP+FN=2, got %+v", o)
	}
	if o.Recall() < 0.5 {
		t.Errorf("fchain recall on cpuhog should be high, got %+v", o)
	}
}

func TestBestOf(t *testing.T) {
	rs := []SchemeResult{
		{Scheme: "bad", Outcome: Outcome{TP: 1, FP: 9, FN: 9}},
		{Scheme: "good", Outcome: Outcome{TP: 9, FP: 1, FN: 1}},
	}
	if best := BestOf(rs); best.Scheme != "good" {
		t.Errorf("BestOf = %s", best.Scheme)
	}
	if BestOf(nil).Scheme != "" {
		t.Error("BestOf(nil) should be zero")
	}
}

func TestFigure2Shape(t *testing.T) {
	out, err := Figure2(2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pinpointed: pe3") {
		t.Errorf("Figure 2 should pinpoint pe3:\n%s", out)
	}
	// The propagation chain must show pe3 before pe6 before pe2.
	i3 := strings.Index(out, "pe3@")
	i6 := strings.Index(out, "pe6@")
	i2 := strings.Index(out, "pe2@")
	if i3 < 0 || i6 < 0 || i2 < 0 || !(i3 < i6 && i6 < i2) {
		t.Errorf("Figure 2 chain order wrong:\n%s", out)
	}
}

func TestFigure3Shape(t *testing.T) {
	out, err := Figure3(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "faulty map selected=true") {
		t.Errorf("Figure 3 should select the faulty map's DiskWrite:\n%s", out)
	}
	if !strings.Contains(out, "normal reduce selected=false") {
		t.Errorf("Figure 3 should filter the normal reduce's CPU:\n%s", out)
	}
}

func TestFigure4Shape(t *testing.T) {
	out, err := Figure4(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rank correlation") {
		t.Fatalf("Figure 4 missing correlation line:\n%s", out)
	}
	// Extract the correlation and require it to be strongly positive.
	idx := strings.Index(out, "rank correlation(local burstiness, expected error) = ")
	rest := out[idx+len("rank correlation(local burstiness, expected error) = "):]
	corr, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	if err != nil {
		t.Fatalf("cannot parse correlation from %q: %v", rest, err)
	}
	if corr < 0.5 {
		t.Errorf("expected strong positive correlation, got %v", corr)
	}
}

func TestFigure5Shape(t *testing.T) {
	out, err := Figure5(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "app1") {
		t.Errorf("Figure 5 should pinpoint app1:\n%s", out)
	}
	if !strings.Contains(out, "discovered dependencies") {
		t.Errorf("Figure 5 should show the discovered graph:\n%s", out)
	}
}

func TestTable2Runs(t *testing.T) {
	out, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"monitoring", "selection", "diagnosis", "validation"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
}
