package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"fchain/internal/metric"
)

// tracedLocalizer builds a warmed-up multi-component localizer with an
// injected level shift on the latter half of its components.
func tracedLocalizer(t *testing.T, parallelism int) (*Localizer, int64) {
	t.Helper()
	const n, horizon = 4, 600
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	loc := NewLocalizer(Config{LookBack: 100, Parallelism: parallelism}, names)
	for i, name := range names {
		for ts := int64(0); ts < horizon; ts++ {
			for _, k := range metric.Kinds {
				v := float64(40+(ts+int64(i)*7)%23) + float64(int64(k))
				if i >= n/2 && ts >= horizon-40 {
					v += 35
				}
				if err := loc.Observe(name, ts, k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return loc, horizon - 1
}

// TestLocalizeTracedPopulatesSpans is the acceptance criterion: every
// Localize must yield an attachable trace with at least one span per
// analyzed (component, metric) pair, plus the pipeline-phase spans.
func TestLocalizeTracedPopulatesSpans(t *testing.T) {
	loc, tv := tracedLocalizer(t, 1)
	diag, stats, tr := loc.LocalizeTraced(tv, nil)
	if tr == nil {
		t.Fatal("LocalizeTraced returned a nil trace")
	}
	if stats.Tasks != len(loc.Components())*metric.NumKinds {
		t.Errorf("stats.Tasks = %d, want %d", stats.Tasks, len(loc.Components())*metric.NumKinds)
	}
	if len(diag.Chain) == 0 {
		t.Fatal("test signal produced no abnormal components")
	}
	if tr.Find("localize") == nil || tr.Find("analyze") == nil || tr.Find("diagnose") == nil {
		t.Fatalf("missing pipeline-phase spans in %s", tr)
	}
	for _, name := range loc.Components() {
		comp := tr.Find("component:" + name)
		if comp == nil {
			t.Fatalf("no span for component %s", name)
		}
		for _, k := range metric.Kinds {
			found := false
			for _, s := range tr.FindAll("select:" + k.String()) {
				if s.Parent == comp.ID {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no select span for (%s, %s)", name, k)
			}
		}
	}
	// Abnormal components must expose their selection evidence.
	for _, r := range diag.Chain {
		comp := tr.Find("component:" + r.Component)
		if v, ok := comp.Attr("changes"); !ok || v == "0" {
			t.Errorf("component %s span changes attr = %q, want > 0", r.Component, v)
		}
	}
	dg := tr.Find("diagnose")
	if v, ok := dg.Attr("chain"); !ok || v == "0" {
		t.Errorf("diagnose span chain attr = %q", v)
	}
	if _, ok := tr.Find("localize").Attr("verdict"); !ok {
		t.Error("localize span has no verdict attr")
	}
	// The trace must contain detect/filter evidence beneath the selections.
	if len(tr.FindAll("detect")) == 0 {
		t.Error("no detect spans recorded")
	}
}

// TestLocalizeTracedDeterministicAcrossWorkers extends the engine's
// determinism contract to traces: the normalized span tree must be
// bit-identical at any worker count.
func TestLocalizeTracedDeterministicAcrossWorkers(t *testing.T) {
	serialLoc, tv := tracedLocalizer(t, 1)
	serialDiag, _, serialTr := serialLoc.LocalizeTraced(tv, nil)
	serialJSON, err := json.Marshal(serialTr.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		loc, _ := tracedLocalizer(t, workers)
		diag, _, tr := loc.LocalizeTraced(tv, nil)
		if diag.String() != serialDiag.String() {
			t.Errorf("workers=%d: diagnosis differs: %s vs %s", workers, diag, serialDiag)
		}
		parJSON, err := json.Marshal(tr.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		if string(parJSON) != string(serialJSON) {
			t.Errorf("workers=%d: normalized trace differs from serial\nserial:   %s\nparallel: %s",
				workers, serialJSON, parJSON)
		}
	}
}
