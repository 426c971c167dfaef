package core

import (
	"fmt"
	"slices"
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
	// Reachability is an equivalence relation, so "some pinned component
	// reaches r" is "r's connected component holds a pinned one". A
	// component the graph does not know reaches nothing.
	if deps != nil && !deps.Empty() {
		conn := deps.Connectivity()
		pinnedLabels := make(map[string]bool, len(pinned))
		for p := range pinned {
			if l, ok := conn[p]; ok {
				pinnedLabels[l] = true
			}
		}
		for _, r := range chain {
			if pinned[r.Component] {
				continue
			}
			if l, ok := conn[r.Component]; ok && pinnedLabels[l] {
				continue
			}
			pinned[r.Component] = true
			diag.Culprits = append(diag.Culprits, culpritFrom(r, "independent"))
			if l, ok := conn[r.Component]; ok {
				pinnedLabels[l] = true
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

// DiagnosePass runs one integrated-diagnosis pass as a pipeline stage: it
// times Diagnose into stats.Diagnose and, with a non-nil trace, records a
// diagnose span under parent carrying the chain length, the culprits and the
// external-factor verdict. The Localizer and the distributed master both
// diagnose through it.
func DiagnosePass(reports []ComponentReport, totalComponents int, deps *depgraph.Graph, cfg Config, stats *PoolStats, tr *obs.Trace, parent int) Diagnosis {
	dg := -1
	if tr != nil {
		dg = tr.Start(parent, "diagnose")
	}
	t0 := time.Now()
	diag := Diagnose(reports, totalComponents, deps, cfg)
	stats.Diagnose.Observe(time.Since(t0).Nanoseconds())
	if tr != nil {
		tr.AttrInt(dg, "chain", int64(len(diag.Chain)))
		tr.Attr(dg, "culprits", strings.Join(diag.CulpritNames(), ","))
		tr.AttrBool(dg, "external", diag.ExternalFactor)
		tr.End(dg)
	}
	return diag
}

// Localizer bundles per-component monitors with the master-side diagnosis,
// providing the whole FChain pipeline behind two calls: Observe for every
// sample, Localize when a performance anomaly is detected.
type Localizer struct {
	cfg      Config
	monitors []*Monitor // sorted by component name: the analysis order
	byName   map[string]*Monitor
}

// NewLocalizer creates a localizer monitoring the given components.
func NewLocalizer(cfg Config, components []string) *Localizer {
	cfg = cfg.withDefaults()
	l := &Localizer{cfg: cfg, byName: make(map[string]*Monitor, len(components))}
	for _, c := range components {
		l.byName[c] = NewMonitor(c, cfg)
	}
	for _, c := range slices.Sorted(slices.Values(components)) {
		l.monitors = append(l.monitors, l.byName[c])
	}
	return l
}

// Observe feeds one sample.
func (l *Localizer) Observe(component string, t int64, k metric.Kind, v float64) error {
	m, ok := l.byName[component]
	if !ok {
		return fmt.Errorf("core: unknown component %q", component)
	}
	return m.Observe(t, k, v)
}

// Ingest feeds one possibly-dirty sample through the component's sanitizing
// path (see Monitor.Ingest).
func (l *Localizer) Ingest(component string, t int64, k metric.Kind, v float64) error {
	m, ok := l.byName[component]
	if !ok {
		return fmt.Errorf("core: unknown component %q", component)
	}
	return m.Ingest(t, k, v)
}

// Quality reports the per-component data quality accumulated by the
// sanitizing ingest path.
func (l *Localizer) Quality() map[string]DataQuality {
	out := make(map[string]DataQuality, len(l.monitors))
	for _, m := range l.monitors {
		out[m.component] = qualityOf(m.Quality())
	}
	return out
}

// AnalyzeInto asks every monitor for its look-back report at tv, appending
// into dst (reset to length 0 first): a caller reusing the slice across
// calls makes the steady-state analysis path allocation-free. With more
// than one component and cfg.Parallelism allowing it, the per-metric
// selection tasks run on a bounded worker pool; the reports are
// bit-identical to the serial order either way.
func (l *Localizer) AnalyzeInto(dst []ComponentReport, tv int64) []ComponentReport {
	reports, _ := analyze(dst, l.monitors, tv, l.cfg.LookBack, l.cfg.Parallelism, nil, -1, time.Time{})
	return reports
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
	diag, _ := l.localize(tv, deps, nil, -1)
	return diag
}

// LocalizeTraced is Localize also returning the engine's per-phase timing —
// selection task latencies plus one diagnosis observation per pass (adaptive
// look-back retries accumulate) — and recording a pipeline trace: a
// localize root span with analyze and diagnose children per pass (adaptive
// look-back retries add a pass each), component:<name> spans per monitor,
// and select:<metric> spans with detect/filter/rollback beneath. The span
// structure and attributes are deterministic per (monitor state, tv, cfg);
// Normalize the trace to compare it against a golden copy.
func (l *Localizer) LocalizeTraced(tv int64, deps *depgraph.Graph) (Diagnosis, PoolStats, *obs.Trace) {
	tr := obs.NewTrace("localize", tv)
	root := tr.Start(-1, "localize")
	tr.AttrInt(root, "components", int64(len(l.monitors)))
	diag, stats := l.localize(tv, deps, tr, root)
	tr.Attr(root, "verdict", diag.String())
	tr.End(root)
	return diag, stats, tr
}

// localize runs the localization passes, optionally recording spans under
// parent.
func (l *Localizer) localize(tv int64, deps *depgraph.Graph, tr *obs.Trace, parent int) (Diagnosis, PoolStats) {
	reports, stats := analyze(nil, l.monitors, tv, l.cfg.LookBack, l.cfg.Parallelism, tr, parent, time.Time{})
	diag := DiagnosePass(reports, len(l.monitors), deps, l.cfg, &stats, tr, parent)
	if !l.cfg.AdaptiveLookBack || len(diag.Chain) > 0 {
		return diag, stats
	}
	// The adaptive growth stops at 500 s, the paper's largest evaluated
	// window, or at the configured window when that is already longer.
	maxLookBack := max(500, l.cfg.LookBack)
	for w := l.cfg.LookBack * 3; w <= maxLookBack*3; w *= 3 {
		window := min(w, maxLookBack)
		// Ring capacity stays as provisioned; monitors retain
		// RingCapacity samples, so the widened analysis sees as much of
		// the longer window as the slave kept.
		reports, st := analyze(nil, l.monitors, tv, window, l.cfg.Parallelism, tr, parent, time.Time{})
		stats.Merge(st)
		diag = DiagnosePass(reports, len(l.monitors), deps, l.cfg, &stats, tr, parent)
		if len(diag.Chain) > 0 || window == maxLookBack {
			return diag, stats
		}
	}
	return diag, stats
}
