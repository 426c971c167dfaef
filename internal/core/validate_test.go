package core

import (
	"errors"
	"testing"

	"fchain/internal/metric"
)

// fakeAdjuster simulates a system whose SLO clears only when every true
// culprit has had some resource scaled.
type fakeAdjuster struct {
	trueCulprits map[string]bool
	scaled       map[string]bool
	now          int64
	scaleErr     error
}

func newFakeAdjuster(culprits ...string) *fakeAdjuster {
	m := make(map[string]bool, len(culprits))
	for _, c := range culprits {
		m[c] = true
	}
	return &fakeAdjuster{trueCulprits: m, scaled: make(map[string]bool), now: 100}
}

func (f *fakeAdjuster) ScaleResource(component string, k metric.Kind, factor float64) error {
	if f.scaleErr != nil {
		return f.scaleErr
	}
	f.scaled[component] = true
	return nil
}

func (f *fakeAdjuster) Now() int64       { return f.now }
func (f *fakeAdjuster) RunUntil(t int64) { f.now = t }

func (f *fakeAdjuster) SLOMetric(from, to int64) float64 {
	// Latency proportional to the number of unrelieved true culprits:
	// relieving one of two concurrent faults improves the SLO partially.
	unrelieved := 0
	for c := range f.trueCulprits {
		if !f.scaled[c] {
			unrelieved++
		}
	}
	if len(f.trueCulprits) == 0 {
		return 0
	}
	return 0.05 + 5.0*float64(unrelieved)/float64(len(f.trueCulprits))
}

func diagWith(culprits ...Culprit) Diagnosis {
	return Diagnosis{Culprits: culprits}
}

// mkFactory returns a trial factory producing fresh fakes with the given
// true culprits.
func mkFactory(culprits ...string) func() (Adjuster, error) {
	return func() (Adjuster, error) { return newFakeAdjuster(culprits...), nil }
}

func TestValidateConfirmsTrueRejectsFalse(t *testing.T) {
	diag := diagWith(
		Culprit{Component: "db", Metrics: []metric.Kind{metric.CPU}},
		Culprit{Component: "web", Metrics: []metric.Kind{metric.CPU}},
	)
	results, err := Validate(mkFactory("db"), diag)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	byComp := map[string]ValidationResult{}
	for _, r := range results {
		byComp[r.Culprit.Component] = r
	}
	if !byComp["db"].Confirmed {
		t.Error("true culprit not confirmed (leaving it out should restore the violation)")
	}
	if byComp["web"].Confirmed {
		t.Error("false alarm confirmed (SLO clears without scaling it)")
	}

	filtered := ApplyValidation(diag, results)
	if len(filtered.Culprits) != 1 || filtered.Culprits[0].Component != "db" {
		t.Errorf("ApplyValidation culprits = %v, want [db]", filtered.CulpritNames())
	}
	if !filtered.Culprits[0].Validated {
		t.Error("surviving culprit should be marked validated")
	}
}

func TestValidateConcurrentCulprits(t *testing.T) {
	// Two concurrent true culprits: relieving either alone cannot clear
	// the violation, but each yields a measurable partial improvement over
	// the control, so both confirm.
	diag := diagWith(Culprit{Component: "pe3"}, Culprit{Component: "pe5"})
	results, err := Validate(mkFactory("pe3", "pe5"), diag)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Confirmed {
			t.Errorf("concurrent culprit %s should confirm", r.Culprit.Component)
		}
		if r.Inconclusive {
			t.Errorf("validation should be conclusive here: %+v", r)
		}
	}
}

func TestValidateSubstitutionErrorRemoved(t *testing.T) {
	// The true culprit ("db") was never pinpointed; relieving the falsely
	// accused components improves nothing, so both are removed. Recall in
	// such a trial is already zero — validation cannot repair it, only
	// clean up the false alarms (paper §III-D).
	diag := diagWith(Culprit{Component: "web"}, Culprit{Component: "app1"})
	results, err := Validate(mkFactory("db"), diag)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Confirmed {
			t.Errorf("non-helping culprit %s should be removed: %+v", r.Culprit.Component, r)
		}
	}
}

func TestValidateInconclusiveWithoutViolationPressure(t *testing.T) {
	// No true culprits at all: the control trial measures no violation
	// pressure, so validation keeps everything rather than judging noise.
	diag := diagWith(Culprit{Component: "web"})
	results, err := Validate(mkFactory(), diag)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Confirmed || !results[0].Inconclusive {
		t.Errorf("expected inconclusive keep: %+v", results)
	}
}

func TestValidatePropagatesErrors(t *testing.T) {
	fa := newFakeAdjuster("db")
	fa.scaleErr = errors.New("hypervisor unavailable")
	diag := diagWith(Culprit{Component: "db", Metrics: []metric.Kind{metric.CPU}})
	if _, err := Validate(func() (Adjuster, error) { return fa, nil }, diag); err == nil {
		t.Error("scale errors must surface")
	}
	if _, err := Validate(func() (Adjuster, error) { return nil, errors.New("no clone") }, diag); err == nil {
		t.Error("trial factory errors must surface")
	}
}

func TestValidateEmptyDiagnosis(t *testing.T) {
	results, err := Validate(mkFactory("x"), Diagnosis{})
	if err != nil || len(results) != 0 {
		t.Errorf("empty diagnosis: results=%v err=%v", results, err)
	}
}
