package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fchain/internal/metric"
)

// TestBudgeterTiers exercises the run-or-skip rule directly: a zero deadline
// never skips, a task that starts before the deadline runs, and one that
// starts at or after it is skipped.
func TestBudgeterTiers(t *testing.T) {
	now := time.Now()
	if pastDeadline(time.Time{}, now) {
		t.Error("zero deadline skipped a task; it must disable budgeting")
	}
	if pastDeadline(now.Add(time.Nanosecond), now) {
		t.Error("task starting before the deadline was skipped")
	}
	if !pastDeadline(now, now) {
		t.Error("task starting exactly at the deadline ran")
	}
	if !pastDeadline(now.Add(-time.Second), now) {
		t.Error("task starting after the deadline ran")
	}
}

// TestSlowFirstTaskDoesNotDegradeTheRest is the regression test for the
// removed budget calibration, which learned a task's cost from the first
// finished task: one descheduled task made a comfortable deadline look tight
// and pushed every later task onto a cheaper kernel. Here only the first task
// stalls (~50 ms), the other eleven fit the 200 ms deadline many times over,
// so every report must be untruncated and identical to the no-deadline run.
func TestSlowFirstTaskDoesNotDegradeTheRest(t *testing.T) {
	const horizon = 600
	monitors := feedMonitors(t, 2, horizon)
	plain, _ := AnalyzeMonitors(monitors, horizon-1, 0, 1)

	var first atomic.Bool
	SetAnalyzeHook(func(string, metric.Kind) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(50 * time.Millisecond)
		}
	})
	defer SetAnalyzeHook(nil)
	budgeted, _, _ := AnalyzeMonitorsDeadline(monitors, horizon-1, 0, 1, time.Now().Add(200*time.Millisecond), false)
	for _, rep := range budgeted {
		if rep.Truncated {
			t.Errorf("component %s truncated although only the first task was slow", rep.Component)
		}
	}
	if !reflect.DeepEqual(plain, budgeted) {
		t.Errorf("a slow first task changed the analysis:\n got %+v\nwant %+v", budgeted, plain)
	}
}

// TestPanicQuarantine injects a panic into one (component, metric) selection
// kernel and checks the blast radius: that stream is quarantined and flagged,
// every other stream still analyzes, nothing unwinds, and after the cooldown
// the stream is probed and re-admitted.
func TestPanicQuarantine(t *testing.T) {
	const horizon = 600
	// The cooldown must outlive the first two analysis passes even under the
	// race detector's slowdown, or the mid-quarantine check below races the
	// probe re-admission.
	cfg := Config{LookBack: 100, QuarantineCooldown: 2 * time.Second}
	mon := NewMonitor("c0", cfg)
	other := NewMonitor("c1", cfg)
	for ts := int64(0); ts < horizon; ts++ {
		for _, k := range metric.Kinds {
			v := float64(40 + ts%23 + int64(k))
			if ts >= horizon-40 {
				v += 35
			}
			if err := mon.Observe(ts, k, v); err != nil {
				t.Fatal(err)
			}
			if err := other.Observe(ts, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	SetAnalyzeHook(func(component string, k metric.Kind) {
		if component == "c0" && k == metric.CPU {
			panic("injected kernel fault")
		}
	})
	defer SetAnalyzeHook(nil)

	reports, stats := AnalyzeMonitors([]*Monitor{mon, other}, horizon-1, 0, 1)
	if stats.Panics != 1 {
		t.Errorf("Panics = %d, want 1", stats.Panics)
	}
	if got := reports[0].Quarantined; len(got) != 1 || got[0] != metric.CPU.String() {
		t.Errorf("c0 Quarantined = %v, want [cpu]", got)
	}
	if len(reports[1].Quarantined) != 0 {
		t.Errorf("c1 Quarantined = %v, want none", reports[1].Quarantined)
	}
	if len(reports[1].Changes) == 0 {
		t.Error("c1 produced no changes; the panic leaked past its stream")
	}
	if !mon.shards[metric.CPU].quarantined {
		t.Error("cpu stream not quarantined after its panic")
	}

	// While quarantined, the stream is skipped without re-running the hook
	// (no new panic) and keeps its quality flag.
	SetAnalyzeHook(nil)
	reports, stats = AnalyzeMonitors([]*Monitor{mon}, horizon-1, 0, 1)
	if stats.Panics != 0 {
		t.Errorf("quarantined re-analysis Panics = %d, want 0", stats.Panics)
	}
	if got := reports[0].Quarantined; len(got) != 1 || got[0] != metric.CPU.String() {
		t.Errorf("quarantined re-analysis Quarantined = %v, want [cpu]", got)
	}

	// After the cooldown the stream is probed; with the fault gone it
	// re-admits cleanly.
	time.Sleep(2100 * time.Millisecond)
	reports, stats = AnalyzeMonitors([]*Monitor{mon}, horizon-1, 0, 1)
	if len(reports[0].Quarantined) != 0 || stats.Panics != 0 {
		t.Errorf("post-cooldown Quarantined = %v Panics = %d, want clean re-admission", reports[0].Quarantined, stats.Panics)
	}
	for _, k := range metric.Kinds {
		if mon.shards[k].quarantined {
			t.Errorf("%s still quarantined after re-admission", k)
		}
	}
}

// TestQuarantineReTrip: a probe that panics again re-trips the quarantine.
func TestQuarantineReTrip(t *testing.T) {
	cfg := Config{LookBack: 100, QuarantineCooldown: 30 * time.Millisecond}
	mon := NewMonitor("c0", cfg)
	for ts := int64(0); ts < 400; ts++ {
		for _, k := range metric.Kinds {
			if err := mon.Observe(ts, k, float64(40+ts%23)); err != nil {
				t.Fatal(err)
			}
		}
	}
	SetAnalyzeHook(func(component string, k metric.Kind) {
		if k == metric.Memory {
			panic("still broken")
		}
	})
	defer SetAnalyzeHook(nil)

	_, stats := AnalyzeMonitors([]*Monitor{mon}, 399, 0, 1)
	if stats.Panics != 1 {
		t.Fatalf("first pass Panics = %d, want 1", stats.Panics)
	}
	time.Sleep(40 * time.Millisecond)
	_, stats = AnalyzeMonitors([]*Monitor{mon}, 399, 0, 1)
	if stats.Panics != 1 {
		t.Errorf("probe pass Panics = %d, want 1 (re-trip)", stats.Panics)
	}
	for _, k := range metric.Kinds {
		if got, want := mon.shards[k].quarantined, k == metric.Memory; got != want {
			t.Errorf("%s quarantined = %v after the failing probe, want %v", k, got, want)
		}
	}
}
