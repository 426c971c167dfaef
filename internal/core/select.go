package core

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"fchain/internal/changepoint"
	"fchain/internal/fftpkg"
	"fchain/internal/metric"
	"fchain/internal/obs"
	"fchain/internal/timeseries"
)

// AbnormalChange describes one selected abnormal change point on one metric
// of a component.
type AbnormalChange struct {
	Component string           `json:"component"`
	Metric    metric.Kind      `json:"metric"`
	ChangeAt  int64            `json:"change_at"` // selected abnormal change point time
	Onset     int64            `json:"onset"`     // manifestation start after tangent rollback
	PredErr   float64          `json:"pred_err"`
	Expected  float64          `json:"expected_err"`
	Magnitude float64          `json:"magnitude"`
	Direction timeseries.Trend `json:"direction"` // up/down of the change
}

// ComponentReport is a slave's answer to the master's "analyze [tv-W, tv]"
// request: whether the component exhibits abnormal changes and when the
// earliest one began.
type ComponentReport struct {
	Component string           `json:"component"`
	Changes   []AbnormalChange `json:"changes,omitempty"`
	// Onset is the earliest abnormal change start across metrics; only
	// meaningful when Abnormal reports true.
	Onset int64 `json:"onset"`
	// Quality summarizes how clean the metric streams behind this report
	// were; the master folds it into per-culprit confidence.
	Quality DataQuality `json:"quality,omitzero"`
	// Truncated marks a report produced under deadline pressure: at least
	// one metric was skipped because the deadline had passed when its task
	// started, so an absent change is weaker evidence of normality than
	// usual.
	Truncated bool `json:"truncated,omitempty"`
	// Quarantined lists metrics skipped under panic quarantine, in metric
	// order: their selection kernel panicked (now or within the cooldown)
	// and the stream was isolated instead of taking the daemon down.
	Quarantined []string `json:"quarantined,omitempty"`
}

// Abnormal reports whether any abnormal change point was selected.
func (r ComponentReport) Abnormal() bool { return len(r.Changes) > 0 }

// Direction returns the direction of the report's earliest abnormal change
// (TrendFlat when no change was selected).
func (r ComponentReport) Direction() timeseries.Trend {
	if len(r.Changes) == 0 {
		return timeseries.TrendFlat
	}
	best := r.Changes[0]
	for _, ch := range r.Changes[1:] {
		if ch.Onset < best.Onset {
			best = ch
		}
	}
	return best.Direction
}

// AbnormalMetrics returns the distinct metrics implicated in the report,
// most significant (largest magnitude relative to expected error) first.
func (r ComponentReport) AbnormalMetrics() []metric.Kind {
	type scored struct {
		k     metric.Kind
		score float64
	}
	best := make(map[metric.Kind]float64)
	for _, ch := range r.Changes {
		score := ch.PredErr
		if ch.Expected > 0 {
			score = ch.PredErr / ch.Expected
		}
		if score > best[ch.Metric] {
			best[ch.Metric] = score
		}
	}
	list := make([]scored, 0, len(best))
	for k, s := range best {
		list = append(list, scored{k, s})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].score != list[j].score {
			return list[i].score > list[j].score
		}
		return list[i].k < list[j].k
	})
	out := make([]metric.Kind, len(list))
	for i, s := range list {
		out[i] = s.k
	}
	return out
}

// Analyze runs abnormal change point selection (paper §II-B) over the
// look-back window [tv-W, tv] for every metric of the component:
//
//  1. smooth the raw samples (noise removal);
//  2. detect change points with CUSUM + bootstrap;
//  3. keep magnitude outliers (PAL-style filter);
//  4. keep only outliers whose online prediction error exceeds the
//     burstiness-adaptive expected error (FFT burst extraction around the
//     point with window Q, top topFreqFrac frequencies, burstPercentile of
//     the burst magnitude);
//  5. roll the selected point back to the manifestation onset by comparing
//     tangents of adjacent change points.
//
// The component's onset is the earliest abnormal onset across its metrics.
func (m *Monitor) Analyze(tv int64) ComponentReport {
	reports, _ := analyze(nil, []*Monitor{m}, tv, 0, 1, nil, -1, time.Time{})
	return reports[0]
}

// config returns the monitor's configuration, with lookBack > 0 overriding
// its look-back window: the master pushes per-request windows (e.g. W=500
// for slow manifestations) and the Localizer widens its window on adaptive
// retries, while the monitors retain RingCapacity samples regardless.
func (m *Monitor) config(lookBack int) Config {
	cfg := m.cfg
	if lookBack > 0 {
		cfg.LookBack = lookBack
	}
	return cfg
}

// analyzeComponent is the engine's per-monitor pass on the caller's arena:
// stats receives one latency observation per metric task plus the panic
// count, and a metric task that starts after a non-zero deadline is skipped
// (see overload.go). With a non-nil trace it opens a component:<name> span
// under parent; the span tree it builds is identical to what the worker
// pool assembles from per-task sub-traces.
func (m *Monitor) analyzeComponent(tv int64, lookBack int, a *arena, stats *PoolStats, tr *obs.Trace, parent int, deadline time.Time) ComponentReport {
	// Never analyze behind samples the reorder buffers are still holding.
	m.FlushIngest(tv)
	cfg := m.config(lookBack)
	comp := -1
	if tr != nil {
		comp = tr.Start(parent, "component:"+m.component)
	}
	report := ComponentReport{Component: m.component, Quality: qualityOf(m.Quality())}
	for _, k := range metric.Kinds {
		t0 := time.Now()
		skipped := pastDeadline(deadline, t0)
		ch, ok, st := m.analyzeMetric(tv, k, cfg, a, tr, comp, skipped)
		stats.Select.Observe(time.Since(t0).Nanoseconds())
		accumulateMetric(&report, ch, ok, st, skipped, k, stats)
	}
	finishReport(&report)
	if tr != nil {
		annotateComponentSpan(tr, comp, report)
		tr.End(comp)
	}
	return report
}

// accumulateMetric folds one metric task's outcome into the component
// report; the serial path and the worker pool's canonical assembly both
// use it so reports stay bit-identical across worker counts.
func accumulateMetric(report *ComponentReport, ch AbnormalChange, ok bool, st metricStatus, skipped bool, k metric.Kind, stats *PoolStats) {
	if ok {
		report.Changes = append(report.Changes, ch)
	}
	if st != metricOK {
		report.Quarantined = append(report.Quarantined, k.String())
		if st == metricPanicked {
			stats.Panics++
		}
	}
	if skipped {
		report.Truncated = true
	}
}

// finishReport computes the component onset from the accumulated changes.
func finishReport(report *ComponentReport) {
	if len(report.Changes) == 0 {
		return
	}
	report.Onset = report.Changes[0].Onset
	for _, ch := range report.Changes[1:] {
		if ch.Onset < report.Onset {
			report.Onset = ch.Onset
		}
	}
}

// annotateComponentSpan records a component span's summary attributes; the
// serial path and the worker pool's canonical assembly both use it so
// traces stay bit-identical across worker counts.
func annotateComponentSpan(tr *obs.Trace, comp int, report ComponentReport) {
	tr.AttrInt(comp, "changes", int64(len(report.Changes)))
	if len(report.Changes) > 0 {
		tr.AttrInt(comp, "onset", report.Onset)
	}
	if report.Truncated {
		tr.AttrBool(comp, "truncated", true)
	}
	if len(report.Quarantined) > 0 {
		tr.Attr(comp, "quarantined", strings.Join(report.Quarantined, ","))
	}
}

// metricStatus reports how one metric task ended beyond its selection
// outcome: ran normally, was skipped under an active quarantine, or
// panicked (and is now quarantined).
type metricStatus uint8

const (
	metricOK metricStatus = iota
	metricQuarantined
	metricPanicked
)

// analyzeMetric selects the earliest abnormal change for one metric; ok is
// false when the metric exhibits none. With a non-nil trace it opens a
// select:<metric> span under parent, with detect/filter/rollback child spans
// recording candidate change points and filter decisions; with tr == nil the
// instrumented path costs only pointer tests. skipped (the deadline had
// passed) runs nothing; a quarantined stream is skipped too, and a panicking
// kernel quarantines its stream instead of unwinding past this frame.
func (m *Monitor) analyzeMetric(tv int64, k metric.Kind, cfg Config, a *arena, tr *obs.Trace, parent int, skipped bool) (AbnormalChange, bool, metricStatus) {
	if skipped {
		if tr != nil {
			sel := tr.Start(parent, "select:"+k.String())
			tr.Attr(sel, "skipped", "deadline")
			tr.End(sel)
		}
		return AbnormalChange{}, false, metricOK
	}
	if m.quarantineBlocked(k, cfg.QuarantineCooldown) {
		if tr != nil {
			sel := tr.Start(parent, "select:"+k.String())
			tr.Attr(sel, "skipped", "quarantined")
			tr.End(sel)
		}
		return AbnormalChange{}, false, metricQuarantined
	}
	if tr == nil {
		return m.runKernel(tv, k, cfg, a, nil, -1)
	}
	sel := tr.Start(parent, "select:"+k.String())
	ch, ok, st := m.runKernel(tv, k, cfg, a, tr, sel)
	if st == metricPanicked {
		tr.Attr(sel, "skipped", "panic")
	}
	tr.AttrBool(sel, "abnormal", ok)
	if ok {
		tr.AttrInt(sel, "change_at", ch.ChangeAt)
		tr.AttrInt(sel, "onset", ch.Onset)
	}
	tr.End(sel)
	return ch, ok, st
}

// runKernel runs the selection kernel under panic protection: a panic trips
// the stream's quarantine, discards the possibly inconsistent arena scratch,
// and surfaces as metricPanicked instead of unwinding the worker.
func (m *Monitor) runKernel(tv int64, k metric.Kind, cfg Config, a *arena, tr *obs.Trace, sel int) (ch AbnormalChange, ok bool, st metricStatus) {
	defer func() {
		if r := recover(); r != nil {
			m.tripQuarantine(k)
			a.reset()
			ch, ok, st = AbnormalChange{}, false, metricPanicked
		}
	}()
	if hook := analyzeHook.Load(); hook != nil {
		(*hook)(m.component, k)
	}
	ch, ok = m.selectMetric(tv, k, cfg, a, tr, sel)
	return ch, ok, metricOK
}

// Selection constants (paper §III-A and the filters layered on it).
const (
	// topFreqFrac is the fraction of the frequency spectrum treated as
	// high frequencies when synthesizing the burst signal.
	topFreqFrac = 0.9
	// burstPercentile is the percentile of the burst magnitude used as the
	// expected prediction error.
	burstPercentile = 90
	// tangentTol is the relative tangent difference below which adjacent
	// change points are considered part of the same manifestation during
	// rollback.
	tangentTol = 0.1
	// outlierSigma is the magnitude-outlier threshold in standard
	// deviations for PAL-style filtering.
	outlierSigma = 1.5
	// selfCalibration scales the recent-history prediction-error
	// percentile that augments the FFT expected error: a metric whose
	// model was already erring badly before the look-back window gets a
	// proportionally higher selection bar.
	selfCalibration = 2.0
	// contextMaxFactor scales the largest prediction error seen in the
	// pre-window context into a selection floor: a change whose error
	// stays below the error ceiling the model already exhibited on this
	// metric matches fluctuation that was "seen before" (the paper's
	// predictability intuition) and is not abnormal.
	contextMaxFactor = 1.05
	// selectionMargin is the factor by which the prediction error must
	// exceed the expected error for a change point to be selected; it
	// suppresses threshold-kissing selections on ordinary workload
	// fluctuations.
	selectionMargin = 1.3
	// magnitudeFactor admits a change point whose mean-shift magnitude
	// exceeds magnitudeFactor × the FFT expected error even when its
	// per-step prediction error does not, provided the shift persists to
	// the end of the window: gradual manifestations (memory leaks,
	// bottleneck queue growth) move the metric far beyond anything the
	// model predicted while keeping each one-second step small, whereas a
	// transient workload burst has reverted by the time the anomaly is
	// analyzed.
	magnitudeFactor = 2.5
	// persistFraction is the fraction of the mean shift that must remain
	// at the window's final sample for the magnitude bypass to apply.
	persistFraction = 0.8
	// escapeDwell is the number of trailing seconds the (smoothed) metric
	// must dwell above its historical 99th percentile for the range-escape
	// selection path to fire. Workload bursts visit extreme levels only
	// briefly; a fault that pins a metric at a level the model almost
	// never saw, for several times any burst duration, is abnormal even
	// when each one-second step looks unremarkable.
	escapeDwell = 10
	// valueStdFactor additionally requires the bypassing shift to exceed
	// valueStdFactor × the metric's historical value variability, so that
	// ordinary periodic swings (whose low-frequency energy the burst
	// signal deliberately excludes) never qualify.
	valueStdFactor = 1.4
)

// selectMetric is the abnormal change point selection kernel behind
// analyzeMetric. All working memory comes from the caller's arena, so a
// warmed-up analysis allocates nothing; the monitor's shard lock is held only
// inside materializeStream, never across the analysis. sel is the enclosing
// select:<metric> span (-1 when untraced).
//
// Under Config.Streaming the kernel consults the shard's streaming state
// (stream.go): a whole-kernel memo hit returns the cached verdict outright,
// and the FFT memo replays burst thresholds already computed. Both replay
// bits the batch arithmetic produced, so streaming changes timings, never
// outputs. Traced runs and active fault-injection hooks always execute the
// real kernel.
func (m *Monitor) selectMetric(tv int64, k metric.Kind, cfg Config, a *arena, tr *obs.Trace, sel int) (ch AbnormalChange, abnormal bool) {
	memoEligible := tr == nil && analyzeHook.Load() == nil
	sv, se, facts := m.materializeStream(tv, k, cfg, a, memoEligible)
	if facts.memoHit {
		return facts.memoCh, facts.memoOK
	}
	if memoEligible {
		defer func() { m.storeMemo(k, facts, tv, cfg, ch, abnormal) }()
	}
	span := cfg.LookBack + cfg.BurstWindow
	vals := sv.ViewRange(tv-int64(span)+1, tv+1)
	errsSeries := se.ViewRange(tv-int64(span)+1, tv+1)
	if vals.Len() < cfg.SmoothWindow*3 || vals.Len() < 8 {
		if tr != nil {
			tr.Attr(sel, "skipped", "short-window")
		}
		return AbnormalChange{}, false
	}
	raw := vals.ValuesView()
	smoothWindow := cfg.SmoothWindow
	if cfg.AdaptiveSmoothing {
		ctx := sv.ViewRange(sv.Start(), tv-int64(cfg.LookBack))
		smoothWindow = adaptiveSmoothWidth(ctx.ValuesView(), cfg.SmoothWindow, a)
	}
	smoothed := timeseries.SmoothInto(a.smooth, raw, smoothWindow)
	a.smooth = smoothed

	// The look-back region starts W before tv; the extra BurstWindow of
	// older samples only provides context for FFT extraction and rollback.
	lookbackStart := tv - int64(cfg.LookBack)
	det := -1
	if tr != nil {
		det = tr.Start(sel, "detect")
	}
	points := a.cp.Detect(smoothed, changepoint.Config{
		// Threshold tables instead of a per-query bootstrap: detection is a
		// pure function of the window contents — no RNG, no reseeding, the
		// same verdict whichever worker runs the task and whenever it runs.
		// That purity is what lets streaming mode memoize kernel results,
		// and it removes the dominant O(Bootstraps·n) term from every
		// batch-mode query as well.
		Thresholds: cfg.Bootstraps,
		Confidence: cfg.CPConfidence,
	})
	if len(points) == 0 {
		if tr != nil {
			tr.AttrInt(det, "points", 0)
			tr.End(det)
		}
		return AbnormalChange{}, false
	}
	outliers := a.cp.SelectOutliers(points, outlierSigma)
	if tr != nil {
		tr.AttrInt(det, "points", int64(len(points)))
		tr.AttrInt(det, "outliers", int64(len(outliers)))
		var cands strings.Builder
		for _, p := range outliers {
			if t := vals.TimeAt(p.Index); t >= lookbackStart {
				if cands.Len() > 0 {
					cands.WriteByte(',')
				}
				cands.WriteString(strconv.FormatInt(t, 10))
			}
		}
		tr.Attr(det, "candidates", cands.String())
		tr.End(det)
	}

	// Relative-magnitude floor (opt-in, MinRelMagnitude > 0): a mean shift
	// smaller than a fixed fraction of the metric's normal operating level
	// is operationally meaningless even when it is statistically
	// significant, and at mesh scale (hundreds of monitored components)
	// such shifts otherwise pollute every propagation chain. Like the
	// context statistics below, the floor's pass over the context is paid
	// for by the first candidate inside the look-back window.
	cvSeries := sv.ViewRange(sv.Start(), lookbackStart)
	relFloor := 0.0
	haveFloor := cfg.MinRelMagnitude <= 0

	flt := -1
	if tr != nil {
		flt = tr.Start(sel, "filter")
	}
	var (
		selected    changepoint.Point
		selectedIdx = -1
		predErr     float64
		expected    float64
		ctx         contextStats
		haveCtx     bool
	)
	for _, p := range outliers {
		t := vals.TimeAt(p.Index)
		if t < lookbackStart {
			continue // context region, not the look-back window
		}
		if !haveFloor {
			level := meanAbs(cvSeries.ValuesView())
			if level == 0 {
				level = meanAbs(smoothed)
			}
			relFloor = cfg.MinRelMagnitude * level
			haveFloor = true
		}
		if relFloor > 0 && math.Abs(p.Magnitude) < relFloor {
			if tr != nil {
				tr.Attr(flt, "cand:"+strconv.FormatInt(t, 10), "sub-floor")
			}
			continue // below the relative-magnitude floor
		}
		// Only the candidates that get this far are judged against the
		// context, and most windows of a healthy stream have change points
		// but no such candidate: the passes over the context are paid for by
		// the first one that needs them.
		if !haveCtx {
			ctxSeries := se.ViewRange(se.Start(), lookbackStart)
			ctx = contextStatsOf(cvSeries.ValuesView(), ctxSeries.ValuesView(), smoothed, a)
			haveCtx = true
		}
		pe := predictionErrorNear(&errsSeries, p.Index)
		var exp, fftExp float64
		if cfg.FixedThreshold > 0 {
			// Fixed-Filtering baseline: one absolute threshold for every
			// metric, every application (paper §III-A scheme 6).
			exp, fftExp = cfg.FixedThreshold, cfg.FixedThreshold
		} else {
			e, err := m.expectedErrorCached(k, raw, p.Index, vals.Start(), cfg, a)
			if err != nil {
				if tr != nil {
					tr.Attr(flt, "cand:"+strconv.FormatInt(t, 10), "fft-error")
				}
				continue
			}
			exp, fftExp = e, e
			if ctx.floor > exp {
				exp = ctx.floor
			}
		}
		// Abnormal when the per-step prediction error clearly exceeds the
		// expected error, or when a sustained mean shift far beyond the
		// burstiness-expected error persists through the window's end
		// (gradual manifestations: leaks, queue growth). Transient bursts
		// fail the persistence check — they have reverted by analysis
		// time.
		persists := shiftPersists(smoothed, p, persistFraction)
		bypass := persists &&
			p.Magnitude > magnitudeFactor*fftExp &&
			p.Magnitude > valueStdFactor*ctx.valueStd
		// Range escape: the change pinned the metric beyond its historical
		// 1st/99th percentile for far longer than any workload burst.
		escaped := persists &&
			((ctx.dwellHigh >= escapeDwell && p.After > ctx.p99 && p.Index >= len(smoothed)-ctx.dwellHigh-5) ||
				(ctx.dwellLow >= escapeDwell && p.After < ctx.p1 && p.Index >= len(smoothed)-ctx.dwellLow-5))
		if cfg.FixedThreshold > 0 {
			// The Fixed-Filtering baseline is *only* the fixed prediction
			// error comparison — no adaptive paths.
			bypass, escaped = false, false
		}
		if pe <= selectionMargin*exp && !bypass && !escaped {
			if tr != nil {
				tr.Attr(flt, "cand:"+strconv.FormatInt(t, 10), "predictable")
			}
			continue // predictable: a normal workload fluctuation
		}
		if tr != nil {
			reason := "pred-err"
			if pe <= selectionMargin*exp {
				if bypass {
					reason = "bypass"
				} else {
					reason = "escaped"
				}
			}
			tr.Attr(flt, "cand:"+strconv.FormatInt(t, 10), reason)
		}
		if selectedIdx == -1 || p.Index < selectedIdx {
			selected = p
			selectedIdx = p.Index
			predErr = pe
			expected = exp
		}
	}
	if tr != nil {
		if selectedIdx >= 0 {
			tr.AttrInt(flt, "selected_at", vals.TimeAt(selectedIdx))
			tr.AttrFloat(flt, "pred_err", predErr)
			tr.AttrFloat(flt, "expected", expected)
		}
		tr.End(flt)
	}
	if selectedIdx == -1 {
		return AbnormalChange{}, false
	}

	// Tangent-based rollback to the manifestation onset, among all detected
	// change points (normal ones included: mid-manifestation points share
	// the fault's tangent).
	rb := -1
	if tr != nil {
		rb = tr.Start(sel, "rollback")
	}
	abnormalPos := 0
	for i, p := range points {
		if p.Index == selected.Index {
			abnormalPos = i
			break
		}
	}
	onsetIdx := selected.Index
	if !cfg.DisableRollback {
		onsetIdx = changepoint.RollbackOnset(smoothed, points, abnormalPos, tangentTol)
		onsetIdx = refineSharpOnset(raw, onsetIdx, selected.Index, selected.Magnitude, smoothWindow)
	}
	onset := vals.TimeAt(onsetIdx)
	if onset < lookbackStart {
		onset = lookbackStart
	}
	if tr != nil {
		tr.AttrInt(rb, "from", vals.TimeAt(selected.Index))
		tr.AttrInt(rb, "onset", onset)
		tr.AttrBool(rb, "disabled", cfg.DisableRollback)
		tr.End(rb)
	}

	dir := timeseries.TrendUp
	if selected.After < selected.Before {
		dir = timeseries.TrendDown
	}
	return AbnormalChange{
		Component: m.component,
		Metric:    k,
		ChangeAt:  vals.TimeAt(selected.Index),
		Onset:     onset,
		PredErr:   predErr,
		Expected:  expected,
		Magnitude: selected.Magnitude,
		Direction: dir,
	}, true
}

// contextStats is what the retained history before the look-back window says
// about a metric; the filter judges every candidate against it.
type contextStats struct {
	floor     float64 // self-calibrated bar under the expected prediction error
	valueStd  float64
	p1, p99   float64 // levels the values went beyond only 1% of the time
	dwellLow  int     // trailing smoothed samples below p1
	dwellHigh int     // trailing smoothed samples above p99
}

// contextStatsOf computes them from the context values cv, the context
// prediction errors errs and the smoothed analysis window, selecting the
// percentiles on the arena's scratch. Batch and streaming analyses both run
// it.
func contextStatsOf(cv, errs, smoothed []float64, a *arena) contextStats {
	// Self-calibration: all retained history before the look-back window
	// characterizes how predictable this metric was before the anomaly
	// manifested. A metric whose model already erred badly (inherently
	// hard to predict, or subject to recurring workload bursts) gets a
	// proportionally higher selection bar: an error within the ceiling the
	// model has already exhibited corresponds to fluctuation seen before.
	cs := contextStats{p1: math.Inf(-1), p99: math.Inf(1)}
	if len(cv) >= 8 {
		cs.valueStd = timeseries.Std(cv)
		if p1, p99, err := timeseries.PercentilePairScratch(cv, 1, 99, &a.pctile); err == nil {
			cs.p1, cs.p99 = p1, p99
		}
	}
	// Range escape: how long has the metric been dwelling beyond the levels
	// it historically visited only 1% of the time?
	for i := len(smoothed) - 1; i >= 0 && smoothed[i] > cs.p99; i-- {
		cs.dwellHigh++
	}
	for i := len(smoothed) - 1; i >= 0 && smoothed[i] < cs.p1; i-- {
		cs.dwellLow++
	}
	if len(errs) >= 8 {
		p90, err := timeseries.PercentileScratch(errs, 90, &a.pctile)
		if err == nil {
			cs.floor = selfCalibration * p90
		}
		if _, hi, err := timeseries.MinMax(errs); err == nil {
			if f := contextMaxFactor * hi; f > cs.floor {
				cs.floor = f
			}
		}
	}
	return cs
}

// adaptiveSmoothWidth picks a smoothing width from the metric's noise
// character: the ratio of sample-to-sample variation to overall variation
// is ~sqrt(2) for white noise and near 0 for a smooth signal. Metrics
// dominated by sampling noise earn a wider window; smooth ones keep the
// configured default so sharp manifestations stay sharp.
func adaptiveSmoothWidth(ctx []float64, base int, a *arena) int {
	if len(ctx) < 16 {
		return base
	}
	if cap(a.diffs) < len(ctx)-1 {
		a.diffs = make([]float64, len(ctx)-1)
	}
	diffs := a.diffs[:len(ctx)-1]
	for i := 1; i < len(ctx); i++ {
		diffs[i-1] = ctx[i] - ctx[i-1]
	}
	sd := timeseries.Std(ctx)
	if sd == 0 {
		return base
	}
	ratio := timeseries.Std(diffs) / sd
	switch {
	case ratio > 1.2: // essentially white noise
		return base + 6
	case ratio > 0.8:
		return base + 2
	default:
		return base
	}
}

// refineSharpOnset pins the onset of a sharp manifestation to the largest
// single-sample step in the raw data near the selected change point.
// Smoothing spreads a step over several samples and the tangent rollback
// can then overshoot into pre-fault fluctuation; the raw step second is
// unambiguous. Gradual manifestations (no single step close to the full
// magnitude) keep the rollback result.
func refineSharpOnset(raw []float64, onsetIdx, selectedIdx int, magnitude float64, smoothWindow int) int {
	lo := onsetIdx - smoothWindow
	if lo < 1 {
		lo = 1
	}
	hi := selectedIdx + smoothWindow
	if hi > len(raw)-1 {
		hi = len(raw) - 1
	}
	bestIdx, bestStep := -1, 0.0
	for i := lo; i <= hi; i++ {
		if step := math.Abs(raw[i] - raw[i-1]); step > bestStep {
			bestStep = step
			bestIdx = i
		}
	}
	if bestIdx >= 0 && bestStep >= 0.5*magnitude {
		return bestIdx
	}
	return onsetIdx
}

// shiftPersists reports whether the level shift of change point p holds
// from the point through the window's end: the final sample must retain the
// shift, and at least 85% of the post-change samples must sit more than
// halfway toward the shifted level. A transient burst whose change point
// predates a later (fault-induced) tail elevation fails the second
// condition — its post-change segment returned to the base level first.
func shiftPersists(smoothed []float64, p changepoint.Point, frac float64) bool {
	if len(smoothed) == 0 || p.Index >= len(smoothed) {
		return false
	}
	last := smoothed[len(smoothed)-1]
	shift := p.After - p.Before
	if shift == 0 {
		return false
	}
	if (last-p.Before)/shift < frac {
		return false
	}
	held, total := 0, 0
	for i := p.Index; i < len(smoothed); i++ {
		total++
		if (smoothed[i]-p.Before)/shift >= 0.5 {
			held++
		}
	}
	return total > 0 && float64(held) >= 0.85*float64(total)
}

// predictionErrorNear returns the largest online prediction error within a
// small neighborhood of the change point (smoothing shifts indices by a few
// samples).
func predictionErrorNear(errs *timeseries.Series, idx int) float64 {
	lo := idx - 2
	if lo < 0 {
		lo = 0
	}
	hi := idx + 3
	if hi > errs.Len() {
		hi = errs.Len()
	}
	var max float64
	for i := lo; i < hi; i++ {
		if e := errs.At(i); e > max {
			max = e
		}
	}
	return max
}

// expectedErrorAt computes the burstiness-adaptive expected prediction
// error for the change point at index idx of the raw window. The 2Q samples
// *preceding* the point are used: they capture the burstiness of the normal
// behaviour the change interrupts, without letting the fault's own shift
// inflate the expectation (for a change at the very end of the look-back
// window a symmetric surround would mostly contain the fault itself). The
// window is linearly detrended first: the expected error measures
// high-frequency variability, and a deterministic trend would otherwise
// leak across the spectrum.
func expectedErrorAt(raw []float64, idx int, cfg Config, a *arena) (float64, error) {
	lo, hi := burstBounds(idx, len(raw), cfg)
	a.detrend = detrendInto(a.detrend, raw[lo:hi])
	return fftpkg.ExpectedError(a.detrend, topFreqFrac, burstPercentile)
}

// burstBounds returns the [lo, hi) slice of the raw window that
// expectedErrorAt feeds the FFT for a change point at idx. Factored out so
// the streaming FFT memo can key cache entries on the exact window without
// computing it.
func burstBounds(idx, n int, cfg Config) (lo, hi int) {
	hi = idx
	lo = idx - 2*cfg.BurstWindow
	if lo < 0 {
		lo = 0
	}
	if hi-lo < cfg.BurstWindow { // too little history before the point
		hi = lo + 2*cfg.BurstWindow + 1
		if hi > n {
			hi = n
		}
	}
	return lo, hi
}

// detrend returns a copy of vals with the least-squares line removed.
func detrend(vals []float64) []float64 {
	return detrendInto(nil, vals)
}

// detrendInto is detrend writing into dst, which is grown as needed and
// returned; passing a reused buffer makes repeated detrending
// allocation-free. dst must not alias vals.
func detrendInto(dst, vals []float64) []float64 {
	n := len(vals)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	if n < 3 {
		copy(out, vals)
		return out
	}
	// Least squares over x = 0..n-1.
	var sumX, sumY, sumXY, sumXX float64
	for i, v := range vals {
		x := float64(i)
		sumX += x
		sumY += v
		sumXY += x * v
		sumXX += x * x
	}
	fn := float64(n)
	den := fn*sumXX - sumX*sumX
	if den == 0 {
		copy(out, vals)
		return out
	}
	slope := (fn*sumXY - sumX*sumY) / den
	intercept := (sumY - slope*sumX) / fn
	for i, v := range vals {
		out[i] = v - (intercept + slope*float64(i))
	}
	return out
}

// ExpectedErrorForWindow exposes the burstiness-adaptive expected
// prediction error computation for a standalone window — the quantity
// plotted in the paper's Fig. 4. Its spectral parameters are the package
// constants topFreqFrac and burstPercentile, so no Config field affects it.
func ExpectedErrorForWindow(window []float64, _ Config) (float64, error) {
	return fftpkg.ExpectedError(detrend(window), topFreqFrac, burstPercentile)
}

// meanAbs is the mean absolute value of vals (0 for an empty slice) — the
// "normal operating level" the MinRelMagnitude floor is relative to.
func meanAbs(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Abs(v)
	}
	return s / float64(len(vals))
}
