package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fchain/internal/depgraph"
	"fchain/internal/metric"
	"fchain/internal/obs"
	"fchain/internal/timeseries"
)

// Culprit is one pinpointed faulty component.
type Culprit struct {
	Component string        `json:"component"`
	Onset     int64         `json:"onset"`
	Metrics   []metric.Kind `json:"metrics"` // implicated metrics, most significant first
	Reason    string        `json:"reason"`  // "source", "concurrent", or "independent"
	Validated bool          `json:"validated,omitempty"`
	// Confidence discounts the verdict by the data quality of the streams
	// it was derived from, in (0, 1]: a culprit pinpointed from heavily
	// repaired or gap-ridden data warrants re-checking once collection
	// recovers rather than immediate remediation.
	Confidence float64 `json:"confidence,omitempty"`
}

// Diagnosis is the output of the integrated fault diagnosis module.
type Diagnosis struct {
	// Culprits lists the pinpointed faulty components in onset order.
	Culprits []Culprit `json:"culprits"`
	// Chain is the abnormal change propagation chain: every abnormal
	// component sorted by manifestation onset.
	Chain []ComponentReport `json:"chain"`
	// ExternalFactor reports that the anomaly is attributed to a factor
	// outside the application (workload surge or shared-service outage)
	// because every component changed with the same trend.
	ExternalFactor bool `json:"external_factor"`
	// Trend is the shared trend direction when ExternalFactor is set.
	Trend timeseries.Trend `json:"trend,omitempty"`
}

// CulpritNames returns the pinpointed component names in onset order.
func (d Diagnosis) CulpritNames() []string {
	out := make([]string, len(d.Culprits))
	for i, c := range d.Culprits {
		out[i] = c.Component
	}
	return out
}

// String renders a compact human-readable summary.
func (d Diagnosis) String() string {
	if d.ExternalFactor {
		return fmt.Sprintf("external factor (%s trend across all components)", d.Trend)
	}
	if len(d.Culprits) == 0 {
		return "no faulty components pinpointed"
	}
	parts := make([]string, len(d.Culprits))
	for i, c := range d.Culprits {
		parts[i] = fmt.Sprintf("%s(onset=%d,%s)", c.Component, c.Onset, c.Reason)
	}
	return "culprits: " + strings.Join(parts, ", ")
}

// Diagnose runs the integrated faulty component pinpointing (paper §II-C):
//
//  1. sort abnormal components by manifestation onset into a propagation
//     chain;
//  2. pinpoint the chain's source; walk the chain and pinpoint every
//     component whose onset is within the concurrency threshold of the
//     previously pinpointed one (concurrent faults);
//  3. if *all* components are abnormal with the same up/down trend,
//     attribute the anomaly to an external factor and pinpoint nothing;
//  4. filter spurious propagation with the dependency graph: a suspicious
//     component with no interaction path from any pinpointed component
//     cannot have been reached by propagation, so it carries an
//     independent fault and is pinpointed too. When the dependency graph
//     is empty (discovery failed, e.g. stream systems), this step is
//     skipped and FChain relies on propagation order alone.
//
// totalComponents is the number of monitored components in the application
// (needed for the external-factor check); deps may be nil or empty.
func Diagnose(reports []ComponentReport, totalComponents int, deps *depgraph.Graph, cfg Config) Diagnosis {
	cfg = cfg.withDefaults()
	var chain []ComponentReport
	for _, r := range reports {
		if r.Abnormal() {
			chain = append(chain, r)
		}
	}
	sort.SliceStable(chain, func(i, j int) bool {
		if chain[i].Onset != chain[j].Onset {
			return chain[i].Onset < chain[j].Onset
		}
		return chain[i].Component < chain[j].Component
	})
	diag := Diagnosis{Chain: chain}
	if len(chain) == 0 {
		return diag
	}

	// External factor detection: all components abnormal, same trend, and
	// onsets nearly simultaneous (a workload surge reaches every tier in
	// seconds; a fault's back-pressure cascade takes much longer).
	if totalComponents > 1 && len(chain) == totalComponents {
		shared := chain[0].Direction()
		same := shared != timeseries.TrendFlat
		for _, r := range chain[1:] {
			if r.Direction() != shared {
				same = false
				break
			}
		}
		if spread := chain[len(chain)-1].Onset - chain[0].Onset; spread > cfg.ExternalSpread {
			same = false
		}
		if same {
			diag.ExternalFactor = true
			diag.Trend = shared
			return diag
		}
	}

	// Propagation-chain pinpointing.
	pinned := map[string]bool{chain[0].Component: true}
	diag.Culprits = append(diag.Culprits, culpritFrom(chain[0], "source"))
	lastPinnedOnset := chain[0].Onset
	for _, r := range chain[1:] {
		if r.Onset-lastPinnedOnset <= cfg.ConcurrencyThreshold {
			pinned[r.Component] = true
			diag.Culprits = append(diag.Culprits, culpritFrom(r, "concurrent"))
			lastPinnedOnset = r.Onset
		}
	}

	// Dependency-based filtering of spurious propagation paths.
	if deps != nil && !deps.Empty() {
		for _, r := range chain {
			if pinned[r.Component] {
				continue
			}
			reachable := false
			for p := range pinned {
				if deps.HasPath(p, r.Component) {
					reachable = true
					break
				}
			}
			if !reachable {
				pinned[r.Component] = true
				diag.Culprits = append(diag.Culprits, culpritFrom(r, "independent"))
			}
		}
	}
	sort.SliceStable(diag.Culprits, func(i, j int) bool {
		if diag.Culprits[i].Onset != diag.Culprits[j].Onset {
			return diag.Culprits[i].Onset < diag.Culprits[j].Onset
		}
		return diag.Culprits[i].Component < diag.Culprits[j].Component
	})
	return diag
}

func culpritFrom(r ComponentReport, reason string) Culprit {
	return Culprit{
		Component:  r.Component,
		Onset:      r.Onset,
		Metrics:    r.AbnormalMetrics(),
		Reason:     reason,
		Confidence: r.Quality.Confidence(),
	}
}

// Localizer bundles per-component monitors with the master-side diagnosis,
// providing the whole FChain pipeline behind two calls: Observe for every
// sample, Localize when a performance anomaly is detected.
type Localizer struct {
	cfg      Config
	monitors map[string]*Monitor
	names    []string
}

// NewLocalizer creates a localizer monitoring the given components.
func NewLocalizer(cfg Config, components []string) *Localizer {
	cfg = cfg.withDefaults()
	l := &Localizer{cfg: cfg, monitors: make(map[string]*Monitor, len(components))}
	for _, c := range components {
		l.monitors[c] = NewMonitor(c, cfg)
		l.names = append(l.names, c)
	}
	sort.Strings(l.names)
	return l
}

// Config returns the effective configuration.
func (l *Localizer) Config() Config { return l.cfg }

// Components returns the monitored component names, sorted.
func (l *Localizer) Components() []string {
	out := make([]string, len(l.names))
	copy(out, l.names)
	return out
}

// Monitor returns the monitor for one component.
func (l *Localizer) Monitor(component string) (*Monitor, bool) {
	m, ok := l.monitors[component]
	return m, ok
}

// Observe feeds one sample.
func (l *Localizer) Observe(component string, t int64, k metric.Kind, v float64) error {
	m, ok := l.monitors[component]
	if !ok {
		return fmt.Errorf("core: unknown component %q", component)
	}
	return m.Observe(t, k, v)
}

// Ingest feeds one possibly-dirty sample through the component's sanitizing
// path (see Monitor.Ingest).
func (l *Localizer) Ingest(component string, t int64, k metric.Kind, v float64) error {
	m, ok := l.monitors[component]
	if !ok {
		return fmt.Errorf("core: unknown component %q", component)
	}
	return m.Ingest(t, k, v)
}

// Quality reports the per-component data quality accumulated by the
// sanitizing ingest path.
func (l *Localizer) Quality() map[string]DataQuality {
	out := make(map[string]DataQuality, len(l.names))
	for _, name := range l.names {
		out[name] = qualityOf(l.monitors[name].Quality())
	}
	return out
}

// StreamingStats aggregates the streaming-selection telemetry across every
// monitored component. All counters are zero when Config.Streaming is off.
func (l *Localizer) StreamingStats() StreamingStats {
	var st StreamingStats
	for _, name := range l.names {
		st.Merge(l.monitors[name].StreamingStats())
	}
	return st
}

// Analyze asks every monitor for its look-back report at tv. With more than
// one component and cfg.Parallelism allowing it, the per-metric selection
// tasks run on a bounded worker pool; the reports are bit-identical to the
// serial order either way.
func (l *Localizer) Analyze(tv int64) []ComponentReport {
	reports, _ := l.analyzeAll(nil, tv, l.cfg, nil, -1)
	return reports
}

// AnalyzeInto is Analyze appending into dst (reset to length 0 first): a
// caller reusing the slice across calls makes the steady-state analysis
// path allocation-free.
func (l *Localizer) AnalyzeInto(dst []ComponentReport, tv int64) []ComponentReport {
	reports, _ := l.analyzeAll(dst, tv, l.cfg, nil, -1)
	return reports
}

// AnalyzeStats is Analyze also returning the engine's timing counters.
func (l *Localizer) AnalyzeStats(tv int64) ([]ComponentReport, PoolStats) {
	return l.analyzeAll(nil, tv, l.cfg, nil, -1)
}

// analyzeAll runs the analysis engine over every monitor under cfg. With a
// non-nil trace it opens an analyze span under parent and records the
// per-component span tree beneath it.
func (l *Localizer) analyzeAll(dst []ComponentReport, tv int64, cfg Config, tr *obs.Trace, parent int) ([]ComponentReport, PoolStats) {
	an := -1
	if tr != nil {
		an = tr.Start(parent, "analyze")
		tr.AttrInt(an, "tasks", int64(len(l.names)*metric.NumKinds))
		tr.AttrInt(an, "lookback", int64(cfg.LookBack))
	}
	if cap(dst) >= len(l.names) {
		dst = dst[:0]
	} else {
		dst = make([]ComponentReport, 0, len(l.names))
	}
	workers := cfg.workers()
	if workers <= 1 || len(l.names) <= 1 {
		// Serial fast path. serialStats is a separate variable from the
		// parallel branch's stats on purpose: the parallel engine leaks its
		// stats pointer into worker goroutines, and sharing one variable
		// would heap-allocate it on this allocation-free path too.
		var serialStats PoolStats
		serialStats.Workers = 1
		serialStats.Tasks = len(l.names) * metric.NumKinds
		a := getArena()
		for _, name := range l.names {
			dst = append(dst, l.monitors[name].analyzeArena(tv, cfg, a, &serialStats, tr, an))
		}
		putArena(a)
		tr.End(an)
		return dst, serialStats
	}
	var stats PoolStats
	monitors := make([]*Monitor, len(l.names))
	cfgs := make([]Config, len(l.names))
	for i, name := range l.names {
		monitors[i] = l.monitors[name]
		cfgs[i] = cfg
	}
	dst = analyzeMonitors(dst, monitors, cfgs, tv, workers, &stats, tr, an, time.Time{})
	tr.End(an)
	return dst, stats
}

// Localize runs the full pipeline: per-component abnormal change point
// selection over [tv-W, tv], then integrated diagnosis with the dependency
// graph (which may be nil).
//
// With cfg.AdaptiveLookBack set and an empty first-pass chain, the analysis
// retries with progressively longer windows (up to 500 s): a
// confirmed SLO violation with no abnormal change inside the window means
// the manifestation is slower than the window covers — the paper's Hadoop
// DiskHog situation, for which it manually switches from W=100 to W=500
// (§III-A, §III-F).
func (l *Localizer) Localize(tv int64, deps *depgraph.Graph) Diagnosis {
	diag, _ := l.LocalizeStats(tv, deps)
	return diag
}

// LocalizeStats is Localize also returning the engine's per-phase timing:
// selection task latencies plus one diagnosis observation per pass
// (adaptive look-back retries accumulate).
func (l *Localizer) LocalizeStats(tv int64, deps *depgraph.Graph) (Diagnosis, PoolStats) {
	return l.localize(tv, deps, nil, -1)
}

// LocalizeTraced is LocalizeStats also recording a pipeline trace: a
// localize root span with analyze and diagnose children per pass (adaptive
// look-back retries add a pass each), component:<name> spans per monitor,
// and select:<metric> spans with detect/filter/rollback beneath. The span
// structure and attributes are deterministic per (monitor state, tv, cfg);
// Normalize the trace to compare it against a golden copy.
func (l *Localizer) LocalizeTraced(tv int64, deps *depgraph.Graph) (Diagnosis, PoolStats, *obs.Trace) {
	tr := obs.NewTrace("localize", tv)
	root := tr.Start(-1, "localize")
	tr.AttrInt(root, "components", int64(len(l.names)))
	diag, stats := l.localize(tv, deps, tr, root)
	tr.Attr(root, "verdict", diag.String())
	tr.End(root)
	return diag, stats, tr
}

// localize runs the localization passes, optionally recording spans under
// parent.
func (l *Localizer) localize(tv int64, deps *depgraph.Graph, tr *obs.Trace, parent int) (Diagnosis, PoolStats) {
	reports, stats := l.analyzeAll(nil, tv, l.cfg, tr, parent)
	diag := l.diagnoseTraced(reports, deps, l.cfg, &stats, tr, parent)
	if !l.cfg.AdaptiveLookBack || len(diag.Chain) > 0 {
		return diag, stats
	}
	// The adaptive growth stops at 500 s, the paper's largest evaluated
	// window, or at the configured window when that is already longer.
	maxLookBack := max(500, l.cfg.LookBack)
	for w := l.cfg.LookBack * 3; w <= maxLookBack*3; w *= 3 {
		window := min(w, maxLookBack)
		wide := l.cfg
		wide.LookBack = window
		// Ring capacity stays as provisioned; monitors retain
		// RingCapacity samples, so the widened analysis sees as much of
		// the longer window as the slave kept.
		reports, st := l.analyzeAll(nil, tv, wide, tr, parent)
		stats.Merge(st)
		diag = l.diagnoseTraced(reports, deps, wide, &stats, tr, parent)
		if len(diag.Chain) > 0 || window == maxLookBack {
			return diag, stats
		}
	}
	return diag, stats
}

// diagnoseTraced runs one Diagnose pass, timing it into stats and recording
// a diagnose span with the chain and verdict when tracing.
func (l *Localizer) diagnoseTraced(reports []ComponentReport, deps *depgraph.Graph, cfg Config, stats *PoolStats, tr *obs.Trace, parent int) Diagnosis {
	dg := -1
	if tr != nil {
		dg = tr.Start(parent, "diagnose")
	}
	t0 := time.Now()
	diag := Diagnose(reports, len(l.names), deps, cfg)
	stats.Diagnose.Observe(time.Since(t0).Nanoseconds())
	if tr != nil {
		tr.AttrInt(dg, "chain", int64(len(diag.Chain)))
		tr.Attr(dg, "culprits", strings.Join(diag.CulpritNames(), ","))
		tr.AttrBool(dg, "external", diag.ExternalFactor)
		tr.End(dg)
	}
	return diag
}
