package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// feedSeries pushes a full value series into one metric of a monitor.
func feedSeries(t *testing.T, m *Monitor, k metric.Kind, vals []float64) {
	t.Helper()
	for i, v := range vals {
		if err := m.Observe(int64(i), k, v); err != nil {
			t.Fatal(err)
		}
	}
}

// periodicWithStep builds a learned periodic signal with an optional fault
// step at stepAt.
func periodicWithStep(n int, stepAt int, stepHeight float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		v := 50 + 10*math.Sin(2*math.Pi*float64(i)/60) + noise*rng.NormFloat64()
		if stepAt >= 0 && i >= stepAt {
			v += stepHeight
		}
		vals[i] = v
	}
	return vals
}

func TestObserveInvalidKind(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	if err := m.Observe(0, metric.Kind(99), 1); err == nil {
		t.Error("invalid kind should error")
	}
}

func TestObserveRejectsBadSamples(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := m.Observe(0, metric.CPU, v)
		if !errors.Is(err, ErrBadSample) {
			t.Errorf("Observe(%v) = %v, want ErrBadSample", v, err)
		}
	}
	// Rejected samples must leave no trace in the history.
	if _, _, ok := m.shards[metric.CPU].samples.Last(); ok {
		t.Error("rejected sample was recorded")
	}
	if err := m.Observe(0, metric.CPU, 1); err != nil {
		t.Errorf("valid sample after rejections: %v", err)
	}
}

func TestObserveRejectsTimeRegression(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	if err := m.Observe(10, metric.CPU, 1); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []int64{9, 10} { // earlier and equal both regress
		err := m.Observe(tt, metric.CPU, 2)
		if !errors.Is(err, ErrTimeRegression) {
			t.Errorf("Observe(t=%d) = %v, want ErrTimeRegression", tt, err)
		}
	}
	// Other metrics keep independent clocks.
	if err := m.Observe(5, metric.Memory, 1); err != nil {
		t.Errorf("independent metric rejected: %v", err)
	}
	if err := m.Observe(11, metric.CPU, 2); err != nil {
		t.Errorf("advancing sample rejected: %v", err)
	}
	if m.shards[metric.CPU].samples.Len() != 2 {
		t.Errorf("history holds %d samples, want 2", m.shards[metric.CPU].samples.Len())
	}
}

func TestIngestAbsorbsDirtWithQuality(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	if err := m.Ingest(0, metric.CPU, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(1, metric.CPU, math.NaN()); err != nil {
		t.Fatalf("Ingest must absorb NaN, got %v", err)
	}
	for ti := int64(2); ti < 40; ti++ {
		if err := m.Ingest(ti, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushIngest(100)
	st := m.Quality()
	if st.DroppedInvalid != 1 || st.Filled != 1 {
		t.Errorf("stats = %v, want the NaN dropped and its slot interpolated", st)
	}
	if q := qualityOf(st); q.Confidence() >= 1 || q.Confidence() <= 0 {
		t.Errorf("confidence = %v, want degraded in (0,1)", q.Confidence())
	}
	rep := m.Analyze(90)
	if rep.Quality.Stats.DroppedInvalid != 1 {
		t.Errorf("report quality missing: %+v", rep.Quality)
	}
}

func TestIngestLongGapSeversHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFillGap = 5
	cfg.ReorderWindow = 1
	m := NewMonitor("c", cfg)
	for ti := int64(0); ti < 100; ti++ {
		if err := m.Ingest(ti, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	// 900-second outage, far beyond MaxFillGap.
	for ti := int64(1000); ti < 1050; ti++ {
		if err := m.Ingest(ti, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushIngest(2000)
	s := m.shards[metric.CPU].samples.Series()
	if s.Start() < 1000 {
		t.Errorf("pre-gap history survived: series starts at %d", s.Start())
	}
	if s.Len() != 50 {
		t.Errorf("post-gap history holds %d samples, want 50", s.Len())
	}
	if st := m.Quality(); st.LongGaps != 1 || st.GapSeconds == 0 {
		t.Errorf("gap not counted: %v", st)
	}
}

func TestObserveVector(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	var vec metric.Vector
	vec.Set(metric.CPU, 42)
	if err := m.ObserveVector(0, &vec); err != nil {
		t.Fatal(err)
	}
	if _, v, ok := m.shards[metric.CPU].samples.Last(); !ok || v != 42 {
		t.Errorf("sample not recorded: %v %v", v, ok)
	}
}

func TestAnalyzeCleanSignalNoAbnormal(t *testing.T) {
	// A learned periodic signal with mild noise must produce no abnormal
	// change points: its change points are predictable.
	m := NewMonitor("c", DefaultConfig())
	vals := periodicWithStep(900, -1, 0, 0.5, 1)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	for _, ch := range report.Changes {
		if ch.Metric == metric.CPU {
			t.Errorf("clean periodic signal flagged abnormal: %+v", ch)
		}
	}
}

func TestAnalyzeDetectsUnseenStep(t *testing.T) {
	// A step the model never saw must be selected, with the onset near the
	// true injection time.
	m := NewMonitor("c", DefaultConfig())
	const stepAt = 850
	vals := periodicWithStep(900, stepAt, 40, 0.5, 2)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("unseen step not flagged")
	}
	found := false
	for _, ch := range report.Changes {
		if ch.Metric != metric.CPU {
			continue
		}
		found = true
		if ch.Onset < stepAt-6 || ch.Onset > stepAt+6 {
			t.Errorf("onset = %d, want near %d", ch.Onset, stepAt)
		}
		if ch.Direction != timeseries.TrendUp {
			t.Errorf("direction = %v, want up", ch.Direction)
		}
		if ch.PredErr <= ch.Expected {
			t.Errorf("selected point must exceed expected error: %v <= %v", ch.PredErr, ch.Expected)
		}
	}
	if !found {
		t.Error("no CPU change in report")
	}
}

func TestAnalyzeDownwardStep(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	vals := periodicWithStep(900, 860, -35, 0.5, 3)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("downward step not flagged")
	}
	if report.Direction() != timeseries.TrendDown {
		t.Errorf("direction = %v, want down", report.Direction())
	}
}

func TestAnalyzeBurstyMetricNotFlagged(t *testing.T) {
	// Fig. 3's reduce-node scenario: a very bursty but stationary metric
	// produces outlier change points, yet the adaptive expected error is
	// high, so none survive the predictability filter.
	m := NewMonitor("c", DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 900)
	for i := range vals {
		vals[i] = 30 + 12*rng.NormFloat64()
		if rng.Float64() < 0.05 {
			vals[i] += 40 * rng.Float64() // random peaks
		}
	}
	feedSeries(t, m, metric.DiskWrite, vals)
	report := m.Analyze(899)
	for _, ch := range report.Changes {
		if ch.Metric == metric.DiskWrite {
			t.Errorf("bursty stationary metric flagged abnormal: %+v", ch)
		}
	}
}

func TestAnalyzeBurstyVsFaultySelection(t *testing.T) {
	// The Fig. 3 pair: the faulty node's disk-write ramp is selected while
	// the normal node's bursty CPU is filtered.
	cfg := DefaultConfig()
	faulty := NewMonitor("map", cfg)
	normal := NewMonitor("reduce", cfg)
	rng := rand.New(rand.NewSource(5))
	const n, fault = 900, 840
	for i := 0; i < n; i++ {
		fv := 20 + 5*math.Sin(2*math.Pi*float64(i)/45) + rng.NormFloat64()
		if i >= fault {
			fv += float64(i-fault) * 1.5 // fault ramp
		}
		if err := faulty.Observe(int64(i), metric.DiskWrite, fv); err != nil {
			t.Fatal(err)
		}
		nv := 40 + 15*rng.NormFloat64()
		if rng.Float64() < 0.04 {
			nv += 50
		}
		if err := normal.Observe(int64(i), metric.CPU, nv); err != nil {
			t.Fatal(err)
		}
	}
	fr := faulty.Analyze(n - 1)
	nr := normal.Analyze(n - 1)
	if !fr.Abnormal() {
		t.Error("faulty map node's ramp not selected")
	}
	if nr.Abnormal() {
		t.Errorf("normal reduce node's bursty CPU wrongly selected: %+v", nr.Changes)
	}
}

func TestRollbackFindsRampStart(t *testing.T) {
	// Gradual manifestation: the selected change point may sit mid-ramp;
	// rollback must walk to the ramp start.
	m := NewMonitor("c", DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	const n, fault = 900, 820
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100 + 2*rng.NormFloat64()
		if i >= fault {
			vals[i] += float64(i-fault) * 2
		}
	}
	feedSeries(t, m, metric.Memory, vals)
	report := m.Analyze(n - 1)
	if !report.Abnormal() {
		t.Fatal("ramp not detected")
	}
	if report.Onset < fault-8 || report.Onset > fault+10 {
		t.Errorf("onset = %d, want near ramp start %d", report.Onset, fault)
	}
}

func TestAnalyzeEarliestOnsetAcrossMetrics(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	cpu := periodicWithStep(900, 870, 40, 0.5, 7)
	mem := periodicWithStep(900, 845, 40, 0.5, 8)
	for i := 0; i < 900; i++ {
		if err := m.Observe(int64(i), metric.CPU, cpu[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(int64(i), metric.Memory, mem[i]); err != nil {
			t.Fatal(err)
		}
	}
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("nothing detected")
	}
	if report.Onset > 852 {
		t.Errorf("component onset = %d, want the earlier memory onset (~845)", report.Onset)
	}
	kinds := report.AbnormalMetrics()
	if len(kinds) < 1 {
		t.Fatal("no abnormal metrics listed")
	}
}

func TestAnalyzeShortHistory(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	for i := 0; i < 5; i++ {
		if err := m.Observe(int64(i), metric.CPU, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	report := m.Analyze(4)
	if report.Abnormal() {
		t.Error("too-short history should not produce abnormal changes")
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	build := func() ComponentReport {
		m := NewMonitor("c", DefaultConfig())
		feedSeries(t, m, metric.CPU, periodicWithStep(900, 850, 40, 0.5, 9))
		return m.Analyze(899)
	}
	a, b := build(), build()
	if len(a.Changes) != len(b.Changes) || a.Onset != b.Onset {
		t.Errorf("analysis not deterministic: %+v vs %+v", a, b)
	}
}

func TestAdaptiveSmoothWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// White noise: wide window.
	noisy := make([]float64, 200)
	for i := range noisy {
		noisy[i] = rng.NormFloat64()
	}
	if got := adaptiveSmoothWidth(noisy, 5, &arena{}); got != 11 {
		t.Errorf("white-noise width = %d, want 11", got)
	}
	// Slow sine: keep the default.
	smooth := make([]float64, 200)
	for i := range smooth {
		smooth[i] = math.Sin(2 * math.Pi * float64(i) / 100)
	}
	if got := adaptiveSmoothWidth(smooth, 5, &arena{}); got != 5 {
		t.Errorf("smooth-signal width = %d, want 5", got)
	}
	// Too little context: keep the default.
	if got := adaptiveSmoothWidth(noisy[:8], 5, &arena{}); got != 5 {
		t.Errorf("short-context width = %d, want 5", got)
	}
	// Constant signal: keep the default.
	if got := adaptiveSmoothWidth(make([]float64, 50), 5, &arena{}); got != 5 {
		t.Errorf("constant-signal width = %d, want 5", got)
	}
}

func TestAdaptiveSmoothingSelectionStillWorks(t *testing.T) {
	cfg := Config{AdaptiveSmoothing: true}
	m := NewMonitor("c", cfg)
	vals := periodicWithStep(900, 850, 40, 0.5, 12)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("step not detected with adaptive smoothing")
	}
}

// noisyStepSignal is the input of BenchmarkModuleSelectionNoisy and of
// TestAnalyzeIntoSteadyStateAllocs: a slow cycle under seeded Gaussian
// noise, with a 50-sample plateau every 400 samples. With n = 2000 the last
// plateau starts 50 samples before the end — a step inside the default
// look-back window that change point detection reports — while the earlier
// plateaus sit in the context, so the kernel runs its context statistics and
// the FFT burst extraction before it dismisses the step as a fluctuation the
// model has already seen.
func noisyStepSignal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for t := range out {
		out[t] = 40 + 6*math.Sin(2*math.Pi*float64(t)/300) + 2*rng.NormFloat64()
		if t%400 >= 350 {
			out[t] += 15
		}
	}
	return out
}

// TestAnalyzeIntoSteadyStateAllocs guards the claim that a warmed-up batch
// analysis allocates nothing, on the two inputs of the selection
// benchmarks. BenchmarkModuleSelection's noise-free periodic signal stops
// every metric after CUSUM finds nothing. noisyStepSignal takes every metric
// through the whole kernel: change points detected, the context statistics
// selected, the FFT burst extraction run, and the candidate then dismissed
// in the filter stage (a selected change would append to the report, which
// is the caller's allocation, not the kernel's). The three-component row
// runs the engine's serial loop over several monitors on one arena.
func TestAnalyzeIntoSteadyStateAllocs(t *testing.T) {
	const horizon = 2000
	periodic := make([]float64, horizon)
	for ts := range periodic {
		periodic[ts] = float64(40+ts%23) + float64(ts%7)
	}
	noisy := func(k metric.Kind) []float64 { return noisyStepSignal(int64(k)+1, horizon) }
	for _, tc := range []struct {
		name       string
		components []string
		signal     func(k metric.Kind) []float64
		filters    int // metrics whose selection reaches the filter stage
	}{
		{"periodic", []string{"c"}, func(metric.Kind) []float64 { return periodic }, 0},
		{"noisy-step", []string{"c"}, noisy, metric.NumKinds},
		{"noisy-step-3-serial", []string{"a", "b", "c"}, noisy, 3 * metric.NumKinds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loc := NewLocalizer(Config{Parallelism: 1}, tc.components)
			for _, c := range tc.components {
				for _, k := range metric.Kinds {
					for ts, v := range tc.signal(k) {
						if err := loc.Observe(c, int64(ts), k, v); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			_, _, tr := loc.LocalizeTraced(horizon-1, nil)
			filters := tr.FindAll("filter")
			if len(filters) != tc.filters {
				t.Fatalf("%d metrics reached the filter stage, want %d", len(filters), tc.filters)
			}
			for _, f := range filters {
				judged := false
				for _, a := range f.Attrs {
					judged = judged || (strings.HasPrefix(a.Key, "cand:") && a.Val == "predictable")
				}
				if !judged {
					t.Fatalf("filter span judged no candidate predictable: %v", f.Attrs)
				}
			}
			reports := loc.AnalyzeInto(nil, horizon-1) // warm the arena and the report buffer
			for _, rep := range reports {
				if rep.Abnormal() {
					t.Fatalf("signal selected a change in %s: %+v", rep.Component, rep.Changes)
				}
			}
			if raceEnabled {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
			if allocs := testing.AllocsPerRun(50, func() {
				reports = loc.AnalyzeInto(reports, horizon-1)
			}); allocs != 0 {
				t.Fatalf("steady-state AnalyzeInto allocates %v objects per call, want 0", allocs)
			}
		})
	}
}

// BenchmarkModuleSelectionNoisy is the root package's
// BenchmarkModuleSelection on noisyStepSignal: every metric has a detected
// step inside the look-back window, so each of the six streams pays for the
// whole kernel — smoothing, CUSUM, the context order statistics, FFT burst
// extraction and the filter — which is what a stream costs on the mesh
// traces of the repository benchmark. The pass allocates nothing
// (TestAnalyzeIntoSteadyStateAllocs guards it).
func BenchmarkModuleSelectionNoisy(b *testing.B) {
	loc := NewLocalizer(DefaultConfig(), []string{"c"})
	for _, k := range metric.Kinds {
		for t, v := range noisyStepSignal(int64(k)+1, 2000) {
			if err := loc.Observe("c", int64(t), k, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	var reports []ComponentReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports = loc.AnalyzeInto(reports, 1999)
	}
}
