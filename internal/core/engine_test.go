package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fchain/internal/metric"
)

// feedMonitors builds n warmed-up monitors with per-component signal
// shapes; components past the midpoint get a level shift near the end so
// some reports carry abnormal changes and some do not.
func feedMonitors(t *testing.T, n int, horizon int64) []*Monitor {
	t.Helper()
	monitors := make([]*Monitor, n)
	for i := range monitors {
		mon := NewMonitor(fmt.Sprintf("c%d", i), Config{LookBack: 100})
		for ts := int64(0); ts < horizon; ts++ {
			for _, k := range metric.Kinds {
				v := float64(40+(ts+int64(i)*7)%23) + float64(int64(k))
				if i >= n/2 && ts >= horizon-40 {
					v += 35 // injected level shift
				}
				if err := mon.Observe(ts, k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		monitors[i] = mon
	}
	return monitors
}

// The engine's determinism contract is one parity table over workers ×
// deadline × traced, run by checkEngineParity one (deadline, traced) slice
// at a time; the four tests below are its slices. Every row's reports must
// equal the serial untraced reference of the same deadline, and a traced
// row's normalized span tree must equal the serial traced row's. The
// references pin what each deadline means: none selects abnormal changes
// (so the equality checks are not vacuous), a generous deadline changes
// nothing, and an expired one skips every task — degenerate output that is
// still identical at any worker count, with a skipped=deadline span per
// task when traced (the slave's traced path under an exhausted budget).

// TestAnalyzeMonitorsMatchesSerial: untraced, no deadline.
func TestAnalyzeMonitorsMatchesSerial(t *testing.T) { checkEngineParity(t, "none", false) }

// TestAnalyzeMonitorsTracedMatchesUntraced: traced, no deadline.
func TestAnalyzeMonitorsTracedMatchesUntraced(t *testing.T) { checkEngineParity(t, "none", true) }

// TestGenerousDeadlineMatchesUnbudgeted: a deadline an hour away, untraced
// and traced.
func TestGenerousDeadlineMatchesUnbudgeted(t *testing.T) {
	checkEngineParity(t, "generous", false)
	checkEngineParity(t, "generous", true)
}

// TestExpiredDeadlineDeterministic: a deadline already past, untraced and
// traced.
func TestExpiredDeadlineDeterministic(t *testing.T) {
	checkEngineParity(t, "expired", false)
	checkEngineParity(t, "expired", true)
}

// parityDeadlines maps the parity table's deadline axis to deadlines.
var parityDeadlines = map[string]func() time.Time{
	"none":     func() time.Time { return time.Time{} },
	"generous": func() time.Time { return time.Now().Add(time.Hour) },
	"expired":  func() time.Time { return time.Now().Add(-time.Second) },
}

// checkEngineParity runs the parity table's rows for one deadline and one
// traced setting, at workers {1, 2, 4, 7}.
func checkEngineParity(t *testing.T, deadline string, traced bool) {
	t.Helper()
	const horizon = 600
	monitors := feedMonitors(t, 6, horizon)
	tasks := len(monitors) * metric.NumKinds
	unbudgeted, _, _ := AnalyzeMonitorsDeadline(monitors, horizon-1, 0, 1, time.Time{}, false)
	wantReports, _, _ := AnalyzeMonitorsDeadline(monitors, horizon-1, 0, 1, parityDeadlines[deadline](), false)
	checkDeadlineReference(t, deadline, wantReports, unbudgeted)
	var wantTrace []byte
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("%s/traced=%t/workers=%d", deadline, traced, workers), func(t *testing.T) {
			reports, stats, tr := AnalyzeMonitorsDeadline(monitors, horizon-1, 0, workers, parityDeadlines[deadline](), traced)
			if stats.Workers != workers || stats.Tasks != tasks || stats.Select.Count != int64(tasks) {
				t.Errorf("stats = workers %d, tasks %d, %d select observations; want %d, %d, %d",
					stats.Workers, stats.Tasks, stats.Select.Count, workers, tasks, tasks)
			}
			if !reflect.DeepEqual(reports, wantReports) {
				t.Errorf("reports differ from the serial untraced row\nserial: %+v\ngot:    %+v", wantReports, reports)
			}
			if !traced {
				if tr != nil {
					t.Errorf("untraced analysis returned a trace: %s", tr)
				}
				return
			}
			if tr.Find("analyze") == nil || len(tr.FindAll("component:c0")) != 1 {
				t.Fatalf("trace lacks its analyze root or one component:c0 span: %s", tr)
			}
			if deadline == "expired" {
				skipped := 0
				for _, sp := range tr.Spans {
					if v, _ := sp.Attr("skipped"); strings.HasPrefix(sp.Name, "select:") && v == "deadline" {
						skipped++
					}
				}
				if skipped != tasks {
					t.Errorf("%d select spans carry skipped=deadline under an expired deadline, want %d", skipped, tasks)
				}
			}
			got, err := json.Marshal(tr.Normalize())
			if err != nil {
				t.Fatal(err)
			}
			if wantTrace == nil {
				wantTrace = got
			} else if !bytes.Equal(got, wantTrace) {
				t.Errorf("normalized trace differs from the serial row\nserial: %s\ngot:    %s", wantTrace, got)
			}
		})
	}
}

// checkDeadlineReference checks the serial untraced reference of one
// deadline against what that deadline means.
func checkDeadlineReference(t *testing.T, deadline string, reports, unbudgeted []ComponentReport) {
	t.Helper()
	abnormal := 0
	for _, rep := range reports {
		if rep.Truncated != (deadline == "expired") {
			t.Errorf("component %s: Truncated=%t under deadline %s", rep.Component, rep.Truncated, deadline)
		}
		if len(rep.Changes) > 0 {
			abnormal++
		}
	}
	switch deadline {
	case "none":
		if abnormal == 0 {
			t.Fatal("test signal produced no abnormal components; the equality checks would be vacuous")
		}
	case "generous":
		if !reflect.DeepEqual(reports, unbudgeted) {
			t.Error("a generous deadline changed the analysis output")
		}
	case "expired":
		if abnormal != 0 {
			t.Errorf("%d components with changes from a fully skipped analysis", abnormal)
		}
	}
}

// TestMonitorConcurrentObserveAnalyze drives collection and analysis into
// one Monitor from many goroutines at once — exactly the slave daemon's
// shape, where the ingest loop and the master's analyze requests overlap.
// Run under -race this checks the per-metric shard locking; the assertions
// check that analysis still sees coherent, non-empty state.
func TestMonitorConcurrentObserveAnalyze(t *testing.T) {
	cfg := Config{LookBack: 100}
	mon := NewMonitor("c", cfg)
	const warm = 500
	for ts := int64(0); ts < warm; ts++ {
		for _, k := range metric.Kinds {
			if err := mon.Observe(ts, k, float64(40+ts%23)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	// One writer per metric: Observe requires per-metric monotone time, and
	// a real collector feeds each attribute stream independently.
	for _, k := range metric.Kinds {
		wg.Add(1)
		go func(k metric.Kind) {
			defer wg.Done()
			for ts := int64(warm); ts < warm+2000; ts++ {
				var err error
				// Exercise both ingest paths: the direct one and the
				// sanitizing one.
				if k%2 == 0 {
					err = mon.Ingest(ts, k, float64(40+ts%23))
				} else {
					err = mon.Observe(ts, k, float64(40+ts%23))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	// Concurrent analyzers and a quality poller racing the writers.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				report := mon.Analyze(warm - 1)
				if report.Component != "c" {
					t.Errorf("report for %q, want c", report.Component)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			mon.Quality()
		}
	}()
	wg.Wait()

	// The monitor must still be fully functional after the storm.
	if report := mon.Analyze(warm + 1999); report.Component != "c" {
		t.Errorf("post-storm report for %q, want c", report.Component)
	}
}

// TestLocalizerConcurrentObserveAnalyze stresses the public facade the way
// a daemon uses it: per-component feeders racing whole-system Analyze
// calls.
func TestLocalizerConcurrentObserveAnalyze(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	loc := NewLocalizer(Config{LookBack: 100}, names)
	const warm = 400
	for ts := int64(0); ts < warm; ts++ {
		for _, c := range names {
			for _, k := range metric.Kinds {
				if err := loc.Observe(c, ts, k, float64(30+ts%17)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for _, c := range names {
		wg.Add(1)
		go func(c string) {
			defer wg.Done()
			for ts := int64(warm); ts < warm+800; ts++ {
				for _, k := range metric.Kinds {
					if err := loc.Observe(c, ts, k, float64(30+ts%17)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reports []ComponentReport
			for j := 0; j < 25; j++ {
				reports = loc.AnalyzeInto(reports[:0], warm-1)
				if len(reports) != len(names) {
					t.Errorf("got %d reports, want %d", len(reports), len(names))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLatencyHist checks the log2 bucketing, merge, and quantile edges the
// pool statistics rely on.
func TestLatencyHist(t *testing.T) {
	var h LatencyHist
	for _, ns := range []int64{100, 200, 1000, 1_000_000} {
		h.Observe(ns)
	}
	if h.Count != 4 {
		t.Fatalf("Count = %d, want 4", h.Count)
	}
	if h.MaxNS != 1_000_000 {
		t.Errorf("MaxNS = %d, want 1000000", h.MaxNS)
	}
	if mean := h.MeanNS(); mean != (100+200+1000+1_000_000)/4 {
		t.Errorf("MeanNS = %d", mean)
	}
	// The p50 upper edge must cover the second-smallest observation but be
	// far below the max.
	if q := h.QuantileNS(0.5); q < 200 || q > 100_000 {
		t.Errorf("QuantileNS(0.5) = %d out of range", q)
	}
	if q := h.QuantileNS(1); q < 1_000_000 {
		t.Errorf("QuantileNS(1) = %d, want >= max", q)
	}
	var other LatencyHist
	other.Observe(50)
	other.Merge(h)
	if other.Count != 5 || other.MaxNS != 1_000_000 {
		t.Errorf("after merge: Count=%d MaxNS=%d", other.Count, other.MaxNS)
	}
	if s := other.String(); s == "" {
		t.Error("String() empty")
	}
	var zero LatencyHist
	if got := zero.QuantileNS(0.99); got != 0 {
		t.Errorf("zero QuantileNS = %d, want 0", got)
	}
}
