package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fchain/internal/apps"
	"fchain/internal/baseline"
	"fchain/internal/changepoint"
	"fchain/internal/cloudsim"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
	"fchain/internal/workload"
)

// DefaultHistogramThresholds, DefaultNetMedicDeltas, and
// DefaultFixedThresholds are the sweep grids used to trace the ROC curves.
var (
	DefaultHistogramThresholds = []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2}
	DefaultNetMedicDeltas      = []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75}
	DefaultFixedThresholds     = []float64{0.05, 0.2, 1, 5, 20, 80, 320}
)

// ComparisonSchemes returns the single-point schemes of the accuracy
// figures: FChain, Topology, Dependency, and PAL.
func ComparisonSchemes() []baseline.Scheme {
	return []baseline.Scheme{
		&baseline.FChain{},
		&baseline.Topology{},
		&baseline.Dependency{},
		&baseline.PAL{},
	}
}

// rocLine renders sweep results as an ROC point series "(recall,precision)".
func rocLine(name string, results []SchemeResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-12s roc:", name)
	for _, r := range results {
		fmt.Fprintf(&sb, " (%.2f,%.2f)", r.Outcome.Recall(), r.Outcome.Precision())
	}
	best := BestOf(results)
	fmt.Fprintf(&sb, "  best P=%.2f R=%.2f", best.Outcome.Precision(), best.Outcome.Recall())
	return sb.String()
}

// writePoints renders one line per result, its name padded to width.
func writePoints(sb *strings.Builder, width int, results []SchemeResult) {
	for _, r := range results {
		fmt.Fprintf(sb, "  %-*s P=%.2f R=%.2f (tp=%d fp=%d fn=%d)\n",
			width, r.Scheme, r.Outcome.Precision(), r.Outcome.Recall(),
			r.Outcome.TP, r.Outcome.FP, r.Outcome.FN)
	}
}

// faultRows makes one sweep row per fault case of a benchmark.
func faultRows(b Benchmark, faults ...apps.FaultCase) []Row {
	rows := make([]Row, len(faults))
	for i, fc := range faults {
		rows[i] = Row{Bench: b, Fault: fc}
	}
	return rows
}

// AccuracyFigure reproduces one ROC comparison figure (Figs. 6-10): for each
// fault of the benchmark subset it evaluates every scheme on the same
// trials and renders precision/recall.
func AccuracyFigure(title string, b Benchmark, faults []apps.FaultCase, runs int, cfg RunConfig) (Report, error) {
	single := len(ComparisonSchemes())
	hist := single + len(DefaultHistogramThresholds)
	cols := schemeColumns(ComparisonSchemes()...)
	cols = append(cols, schemeColumns(baseline.HistogramSweep(DefaultHistogramThresholds)...)...)
	cols = append(cols, schemeColumns(baseline.NetMedicSweep(DefaultNetMedicDeltas)...)...)
	s := Sweep{Rows: faultRows(b, faults...), Columns: cols, Runs: runs, Config: cfg}
	return s.report(fmt.Sprintf("%s — %s, %d runs per fault\n", title, b.Name, runs),
		"fault %[2]s (%[3]d trials, %[4]d without violation):\n",
		func(sb *strings.Builder, rs []SchemeResult) {
			writePoints(sb, 12, rs[:single])
			sb.WriteString(rocLine("histogram", rs[single:hist]) + "\n")
			sb.WriteString(rocLine("netmedic", rs[hist:]) + "\n")
		})
}

// Figure6 — RUBiS single-component faults (MemLeak, CpuHog, NetHog).
func Figure6(runs int, cfg RunConfig) (Report, error) {
	b := Benchmarks()[0]
	return AccuracyFigure("Figure 6: single-component fault localization accuracy", b, b.Faults[:3], runs, cfg)
}

// Figure7 — System S single-component faults (MemLeak, CpuHog, Bottleneck).
func Figure7(runs int, cfg RunConfig) (Report, error) {
	b := Benchmarks()[1]
	return AccuracyFigure("Figure 7: single-component fault localization accuracy", b, b.Faults[:3], runs, cfg)
}

// Figure8 — RUBiS multi-component faults (OffloadBug, LBBug).
func Figure8(runs int, cfg RunConfig) (Report, error) {
	b := Benchmarks()[0]
	return AccuracyFigure("Figure 8: multi-component fault localization accuracy", b, b.Faults[3:], runs, cfg)
}

// Figure9 — System S multi-component faults (concurrent MemLeak/CpuHog).
func Figure9(runs int, cfg RunConfig) (Report, error) {
	b := Benchmarks()[1]
	return AccuracyFigure("Figure 9: multi-component fault localization accuracy", b, b.Faults[3:], runs, cfg)
}

// Figure10 — Hadoop multi-component faults (concurrent MemLeak, CpuHog,
// DiskHog on all map nodes).
func Figure10(runs int, cfg RunConfig) (Report, error) {
	b := Benchmarks()[2]
	return AccuracyFigure("Figure 10: multi-component fault localization accuracy", b, b.Faults, runs, cfg)
}

// Figure2 reproduces the abnormal change propagation walk-through: a
// MemLeak at PE3 of System S propagates PE3 → PE6 → PE2 (back-pressure for
// the last hop). It reports the onset FChain assigns to each abnormal PE
// and the resulting chain.
func Figure2(seed int64) (string, error) {
	sim, err := cloudsim.New(apps.SystemS(seed), seed)
	if err != nil {
		return "", err
	}
	const inject = 1400
	fault := cloudsim.NewMemLeak(inject, 30, "pe3")
	if err := sim.Inject(fault); err != nil {
		return "", err
	}
	sim.RunUntil(inject + 600)
	tv, found := sim.FirstViolation(inject, 3)
	if !found {
		return "", fmt.Errorf("eval: figure 2 scenario produced no violation")
	}
	// The figure illustrates the complete propagation path, so analyze a
	// couple of minutes after detection with a window covering the whole
	// cascade (PE6's buffer fill and PE2's back-pressure take tens of
	// seconds after PE3's own manifestation).
	analyzeAt := tv + 120
	diag, err := diagnoseSim(sim, analyzeAt, 300, depgraph.NewGraph())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2: abnormal change propagation in System S (MemLeak at pe3, injected t=%d, tv=%d, analyzed at %d)\n", inject, tv, analyzeAt)
	fmt.Fprintf(&sb, "propagation chain (onset order):")
	for _, r := range diag.Chain {
		fmt.Fprintf(&sb, " %s@%d", r.Component, r.Onset)
	}
	fmt.Fprintf(&sb, "\npinpointed: %s\n", strings.Join(diag.CulpritNames(), ", "))
	return sb.String(), nil
}

// diagnoseSim feeds a finished simulation into a fresh localizer.
func diagnoseSim(sim *cloudsim.Sim, tv int64, lookBack int, deps *depgraph.Graph) (core.Diagnosis, error) {
	cfg := core.Config{LookBack: lookBack}
	loc := core.NewLocalizer(cfg, sim.Components())
	for _, comp := range sim.Components() {
		for _, k := range metric.Kinds {
			s, err := sim.Series(comp, k)
			if err != nil {
				return core.Diagnosis{}, err
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				if err := loc.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					return core.Diagnosis{}, err
				}
			}
		}
	}
	return loc.Localize(tv, deps), nil
}

// Figure3 reproduces the change point selection contrast: raw CUSUM change
// points on the faulty map node's DiskWrite versus a normal reduce node's
// CPU in a Hadoop run with a DiskHog, and which points FChain's selection
// keeps.
func Figure3(seed int64) (string, error) {
	sim, err := cloudsim.New(apps.Hadoop(seed), seed)
	if err != nil {
		return "", err
	}
	const inject = 1400
	fault := cloudsim.NewDiskHog(inject, 59.4, 300, apps.HadoopMaps...)
	if err := sim.Inject(fault); err != nil {
		return "", err
	}
	sim.RunUntil(inject + 900)
	tv, found := sim.FirstViolation(inject, 3)
	if !found {
		return "", fmt.Errorf("eval: figure 3 scenario produced no violation")
	}
	const lookBack = 500
	describe := func(comp string, k metric.Kind) (string, int, bool, error) {
		s, err := sim.Series(comp, k)
		if err != nil {
			return "", 0, false, err
		}
		w := s.Window(tv-lookBack, tv+1)
		smoothed := timeseries.Smooth(w.Values(), 5)
		points := changepoint.Detect(smoothed, changepoint.Config{})
		// FChain selection for the same metric.
		cfg := core.Config{LookBack: lookBack}
		mon := core.NewMonitor(comp, cfg)
		full, _ := sim.Series(comp, k)
		for i := 0; i < full.Len() && full.TimeAt(i) <= tv; i++ {
			if err := mon.Observe(full.TimeAt(i), k, full.At(i)); err != nil {
				return "", 0, false, err
			}
		}
		report := mon.Analyze(tv)
		selected := false
		for _, ch := range report.Changes {
			if ch.Metric == k {
				selected = true
			}
		}
		return fmt.Sprintf("%s/%s: %d raw change points, abnormal selected: %v", comp, k, len(points), selected),
			len(points), selected, nil
	}
	faulty, _, faultySel, err := describe("map1", metric.DiskWrite)
	if err != nil {
		return "", err
	}
	normal, _, normalSel, err := describe("reduce1", metric.CPU)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: abnormal change point selection (Hadoop DiskHog, tv=%d, W=%d)\n", tv, lookBack)
	sb.WriteString("  " + faulty + "\n")
	sb.WriteString("  " + normal + "\n")
	fmt.Fprintf(&sb, "  expectation: faulty map selected=%v (want true), normal reduce selected=%v (want false)\n",
		faultySel, normalSel)
	return sb.String(), nil
}

// Figure4 reproduces the expected-prediction-error illustration: over a
// CPU-usage-like series whose burstiness varies, the FFT-based expected
// error tracks the local burstiness.
func Figure4(seed int64) (string, error) {
	// A series that alternates between calm and bursty phases.
	trace := workload.NewSynthetic(workload.ClarkNet(), 1200, seed)
	series := make([]float64, 1200)
	for i := range series {
		series[i] = trace.Rate(int64(i)) / 4 // scale into a CPU%-like range
	}
	var sb strings.Builder
	sb.WriteString("Figure 4: expected prediction error follows burstiness (CPU usage)\n")
	sb.WriteString("  window_end  local_std  expected_err\n")
	var rows []burstRow
	cfg := core.DefaultConfig()
	for end := 100; end <= 1200; end += 100 {
		w := series[end-41 : end]
		std := timeseries.Std(w)
		exp, err := core.ExpectedErrorForWindow(w, cfg)
		if err != nil {
			return "", err
		}
		rows = append(rows, burstRow{std: std, exp: exp})
		fmt.Fprintf(&sb, "  %10d  %9.3f  %12.3f\n", end, std, exp)
	}
	// Report the rank correlation between burstiness and expected error.
	corr := rankCorrelation(rows)
	fmt.Fprintf(&sb, "  rank correlation(local burstiness, expected error) = %.2f (paper: strongly positive)\n", corr)
	return sb.String(), nil
}

// burstRow pairs a window's burstiness with its expected error.
type burstRow struct{ std, exp float64 }

func rankCorrelation(rows []burstRow) float64 {
	n := len(rows)
	if n < 2 {
		return 0
	}
	rank := func(key func(int) float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
		r := make([]float64, n)
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	rs := rank(func(i int) float64 { return rows[i].std })
	re := rank(func(i int) float64 { return rows[i].exp })
	var d2 float64
	for i := 0; i < n; i++ {
		d := rs[i] - re[i]
		d2 += d * d
	}
	return 1 - 6*d2/float64(n*(n*n-1))
}

// Figure5 reproduces the RUBiS pinpointing walk-through: a fault at an
// application server, the propagation chain with onsets, and the role of
// the dependency graph in dismissing the spurious app1→app2 propagation.
func Figure5(seed int64) (string, error) {
	sim, err := cloudsim.New(apps.RUBiS(seed), seed)
	if err != nil {
		return "", err
	}
	const inject = 1400
	fault := cloudsim.NewBottleneck(inject, 0.10, apps.App1)
	if err := sim.Inject(fault); err != nil {
		return "", err
	}
	sim.RunUntil(inject + 700)
	tv, found := sim.FirstViolation(inject, 3)
	if !found {
		return "", fmt.Errorf("eval: figure 5 scenario produced no violation")
	}
	deps := depgraph.Discover(sim.DependencyTrace(600, seed), depgraph.DiscoverConfig{})
	diag, err := diagnoseSim(sim, tv, 100, deps)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: RUBiS pinpointing walk-through (fault at %s, injected t=%d, tv=%d)\n", apps.App1, inject, tv)
	fmt.Fprintf(&sb, "discovered dependencies: %s\n", deps)
	fmt.Fprintf(&sb, "propagation chain:")
	for _, r := range diag.Chain {
		fmt.Fprintf(&sb, " %s@%d", r.Component, r.Onset)
	}
	fmt.Fprintf(&sb, "\npinpointed: %s\n", diag)
	return sb.String(), nil
}

// Figure11 reproduces the online validation study on the two hardest
// System S faults (Bottleneck and concurrent CpuHog): FChain with and
// without validation.
func Figure11(runs int, cfg RunConfig) (Report, error) {
	b := Benchmarks()[1]
	s := Sweep{
		Rows:    faultRows(b, b.Faults[2], b.Faults[4]), // bottleneck, concurrent-cpuhog
		Columns: schemeColumns(&baseline.FChain{}, &baseline.FChain{Validate: true}),
		Runs:    runs,
		Config:  cfg,
	}
	return s.report(fmt.Sprintf("Figure 11: online validation effectiveness — %s, %d runs per fault\n", b.Name, runs),
		"fault %[2]s (%[3]d trials, %[4]d skipped):\n",
		func(sb *strings.Builder, rs []SchemeResult) { writePoints(sb, 12, rs) })
}

// Figure12 reproduces the Fixed-Filtering comparison on LBBug (RUBiS) and
// DiskHog (Hadoop): the fixed threshold sweep against adaptive FChain.
func Figure12(runs int, cfg RunConfig) (Report, error) {
	rubis := Benchmarks()[0]
	hadoop := Benchmarks()[2]
	s := Sweep{
		Rows: []Row{
			{Bench: rubis, Fault: rubis.Faults[4]},   // lbbug
			{Bench: hadoop, Fault: hadoop.Faults[2]}, // concurrent-diskhog
		},
		Columns: append(schemeColumns(&baseline.FChain{}),
			schemeColumns(baseline.FixedFilterSweep(DefaultFixedThresholds)...)...),
		Runs:   runs,
		Config: cfg,
	}
	return s.report(fmt.Sprintf("Figure 12: Fixed-Filtering threshold sensitivity, %d runs per fault\n", runs),
		"fault %s/%s (%d trials, %d skipped):\n",
		func(sb *strings.Builder, rs []SchemeResult) { writePoints(sb, 12, rs) })
}

// Table1 reproduces the sensitivity study: precision/recall of FChain under
// different look-back windows and concurrency thresholds, on NetHog
// (RUBiS), CpuHog (System S), and DiskHog (Hadoop).
func Table1(runs int, cfg RunConfig) (Report, error) {
	bs := Benchmarks()
	var cols []Column
	for _, w := range []int{100, 300, 500} {
		cols = append(cols, Column{
			Name:   fmt.Sprintf("W=%d", w),
			Scheme: &baseline.FChain{},
			Trial:  func(tr baseline.Trial) baseline.Trial { tr.LookBack = w; return tr },
		})
	}
	for _, ct := range []int64{2, 5, 10} {
		cols = append(cols, Column{
			Name:   fmt.Sprintf("concurrency=%d", ct),
			Scheme: &baseline.FChain{Config: core.Config{ConcurrencyThreshold: ct}},
		})
	}
	s := Sweep{
		Rows: []Row{
			{Bench: bs[0], Fault: bs[0].Faults[2]}, // nethog
			{Bench: bs[1], Fault: bs[1].Faults[1]}, // cpuhog
			{Bench: bs[2], Fault: bs[2].Faults[2]}, // concurrent-diskhog
		},
		Columns: cols,
		Runs:    runs,
		Config:  cfg,
	}
	return s.report(fmt.Sprintf("Table I: sensitivity to W and the concurrency threshold, %d runs per cell\n", runs),
		"%s/%s (%d trials, %d skipped):\n",
		func(sb *strings.Builder, rs []SchemeResult) {
			for _, r := range rs {
				fmt.Fprintf(sb, "  %-17s P=%.2f R=%.2f\n", r.Scheme, r.Outcome.Precision(), r.Outcome.Recall())
			}
		})
}

// Table2 measures the CPU cost of each FChain module, mirroring the
// paper's overhead table: per-sample monitoring, normal fluctuation
// modeling over 1000 samples, abnormal change point selection over a 100 s
// window, integrated diagnosis, and per-component online validation
// (simulated seconds, reported as wall time here).
func Table2() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table II: FChain module cost measurements\n")

	cfg := core.DefaultConfig()
	trace := workload.NewSynthetic(workload.NASA(), 4000, 9)

	// Normal fluctuation modeling: 1000 samples through six metric models.
	mon := core.NewMonitor("m", cfg)
	var vec metric.Vector
	start := time.Now()
	for t := int64(0); t < 1000; t++ {
		for _, k := range metric.Kinds {
			vec.Set(k, trace.Rate(t))
		}
		if err := mon.ObserveVector(t, &vec); err != nil {
			return "", err
		}
	}
	modeling := time.Since(start)
	perSample := modeling / 1000
	fmt.Fprintf(&sb, "  VM monitoring+modeling (6 attributes, per sample): %v\n", perSample)
	fmt.Fprintf(&sb, "  normal fluctuation modeling (1000 samples):        %v\n", modeling)

	// Abnormal change point selection over a 100-sample window.
	for t := int64(1000); t < 1600; t++ {
		for _, k := range metric.Kinds {
			vec.Set(k, trace.Rate(t))
		}
		if err := mon.ObserveVector(t, &vec); err != nil {
			return "", err
		}
	}
	start = time.Now()
	report := mon.Analyze(1599)
	selection := time.Since(start)
	fmt.Fprintf(&sb, "  abnormal change point selection (100 samples):     %v\n", selection)

	// Integrated fault diagnosis over a handful of reports.
	reports := []core.ComponentReport{report}
	for i := 0; i < 6; i++ {
		reports = append(reports, core.ComponentReport{Component: fmt.Sprintf("c%d", i)})
	}
	start = time.Now()
	for i := 0; i < 1000; i++ {
		core.Diagnose(reports, len(reports), nil, cfg)
	}
	diagnosis := time.Since(start) / 1000
	fmt.Fprintf(&sb, "  integrated fault diagnosis (per invocation):       %v\n", diagnosis)

	// Online validation: dominated by the SLO observation window
	// (core.ValidationObserve simulated seconds per component).
	fmt.Fprintf(&sb, "  online validation (per component):                 %d simulated seconds\n", core.ValidationObserve)

	// Slave memory footprint (paper: ~3 MB per daemon): two rings of
	// RingCapacity float64 values (timestamps are kept as runs, not per slot)
	// plus at most a bins×bins transition matrix, per metric per monitored
	// component. A predictor stores only the rows a transition has left, so
	// the matrix term is the every-row-occupied upper bound.
	perMetric := cfg.RingCapacity*8*2 + cfg.MarkovBins*cfg.MarkovBins*8
	perComponent := perMetric * metric.NumKinds
	fmt.Fprintf(&sb, "  slave state (per monitored component):             ~%d KB\n", perComponent/1024)
	return sb.String(), nil
}
