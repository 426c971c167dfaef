package core

import (
	"sync"
	"time"

	"fchain/internal/metric"
	"fchain/internal/obs"
)

// This file implements the parallel analysis engine: a bounded worker pool
// that fans abnormal change point selection out as one task per
// (component, metric) pair, each worker owning a pooled arena so the
// selection kernels stay allocation-free under concurrency.
//
// Determinism contract: every task is a pure function of (monitor state at
// materialize time, tv, cfg) — change-point confidence comes from
// deterministic per-window-length threshold tables, so no task holds RNG
// state — and results are written to a
// preallocated slot indexed by task, then assembled in canonical component
// and metric order. Output is therefore bit-identical to the serial path at
// any worker count. Tracing preserves the contract: each task records into
// a private sub-trace, and assembly grafts the sub-traces in canonical
// order, so the span tree matches the serial path span for span.
//
// Single-component analyses stay serial regardless of the knob: the
// per-violation hot path (one component per call in the module benchmarks)
// would pay goroutine fan-out and result-slot allocation for at most six
// tasks, and keeping it serial keeps it allocation-free.

// analyzeSerial analyzes the monitors in order on one shared arena,
// appending to dst.
func analyzeSerial(dst []ComponentReport, monitors []*Monitor, cfgs []Config, tv int64, stats *PoolStats, tr *obs.Trace, parent int, deadline time.Time) []ComponentReport {
	a := getArena()
	for i, mon := range monitors {
		dst = append(dst, mon.analyzeBudgeted(tv, cfgs[i], a, stats, tr, parent, deadline))
	}
	putArena(a)
	return dst
}

// analyzeMonitors is the engine entry point: it analyzes every monitor at
// tv under its matching config (cfgs[i] for monitors[i]), appending one
// report per monitor to dst in monitor order. workers <= 1, a single
// monitor, or no monitors run serially. With a non-nil trace, component and
// selection spans are recorded under parent. A non-zero deadline skips every
// task that starts after it (see overload.go); with a zero deadline the output
// is deterministic and bit-identical at any worker count.
func analyzeMonitors(dst []ComponentReport, monitors []*Monitor, cfgs []Config, tv int64, workers int, stats *PoolStats, tr *obs.Trace, parent int, deadline time.Time) []ComponentReport {
	numTasks := len(monitors) * metric.NumKinds
	stats.Tasks += numTasks
	if workers > numTasks {
		workers = numTasks
	}
	if stats.Workers < 1 {
		stats.Workers = 1
	}
	if workers <= 1 || len(monitors) <= 1 {
		return analyzeSerial(dst, monitors, cfgs, tv, stats, tr, parent, deadline)
	}
	if workers > stats.Workers {
		stats.Workers = workers
	}

	// Per-component prepass under no concurrency: flush the reorder buffers
	// and capture quality exactly as the serial path does before analyzing.
	qualities := make([]DataQuality, len(monitors))
	for i, mon := range monitors {
		mon.FlushIngest(tv)
		qualities[i] = qualityOf(mon.Quality())
	}

	type taskResult struct {
		ch      AbnormalChange
		ok      bool
		st      metricStatus
		skipped bool
		sub     *obs.Trace // per-task sub-trace, grafted at assembly
	}
	results := make([]taskResult, numTasks)
	tasks := make(chan int)
	var (
		wg      sync.WaitGroup
		statsMu sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := getArena()
			defer putArena(a)
			var hist LatencyHist
			for idx := range tasks {
				mon := monitors[idx/metric.NumKinds]
				k := metric.Kinds[idx%metric.NumKinds]
				var sub *obs.Trace
				if tr != nil {
					sub = obs.NewTrace("task", tv)
				}
				t0 := time.Now()
				skipped := pastDeadline(deadline, t0)
				ch, ok, st := mon.analyzeMetric(tv, k, cfgs[idx/metric.NumKinds], a, sub, -1, skipped)
				hist.Observe(time.Since(t0).Nanoseconds())
				results[idx] = taskResult{ch: ch, ok: ok, st: st, skipped: skipped, sub: sub}
			}
			statsMu.Lock()
			stats.Select.Merge(hist)
			statsMu.Unlock()
		}()
	}
	for i := 0; i < numTasks; i++ {
		tasks <- i
	}
	close(tasks)
	wg.Wait()

	// Canonical-order assembly: reports in monitor order, changes in metric
	// kind order, exactly like the serial loop — and sub-traces grafted in
	// the same order the serial path would have created their spans.
	for ci, mon := range monitors {
		comp := -1
		if tr != nil {
			comp = tr.Start(parent, "component:"+mon.Component())
		}
		rep := ComponentReport{Component: mon.Component(), Quality: qualities[ci]}
		for ki := 0; ki < metric.NumKinds; ki++ {
			r := results[ci*metric.NumKinds+ki]
			if tr != nil {
				tr.Graft(comp, r.sub)
			}
			accumulateMetric(&rep, r.ch, r.ok, r.st, r.skipped, metric.Kinds[ki], stats)
		}
		finishReport(&rep)
		if tr != nil {
			annotateComponentSpan(tr, comp, rep)
			tr.End(comp)
		}
		dst = append(dst, rep)
	}
	return dst
}

// AnalyzeMonitors analyzes several independent monitors on one bounded
// worker pool, fanning out per (component, metric) task: the slave daemon
// uses it to answer a master's analyze request with all local components in
// flight at once. lookBack > 0 overrides each monitor's configured look-back
// window; workers follows the Config.Parallelism convention (0 =
// GOMAXPROCS, 1 = serial). Reports are returned in monitor order and are
// bit-identical to analyzing each monitor serially.
func AnalyzeMonitors(monitors []*Monitor, tv int64, lookBack, workers int) ([]ComponentReport, PoolStats) {
	reports, stats, _ := analyzeMonitorsOpts(monitors, tv, lookBack, workers, false, time.Time{})
	return reports, stats
}

// AnalyzeMonitorsTraced is AnalyzeMonitors also recording a pipeline trace:
// an analyze root span with one component:<name> span per monitor and
// select:<metric> spans beneath. The trace's span structure is identical at
// any worker count; only the timings differ.
func AnalyzeMonitorsTraced(monitors []*Monitor, tv int64, lookBack, workers int) ([]ComponentReport, PoolStats, *obs.Trace) {
	return analyzeMonitorsOpts(monitors, tv, lookBack, workers, true, time.Time{})
}

// AnalyzeMonitorsDeadline is AnalyzeMonitors budgeting the selection work
// against a wall-clock deadline: a task that starts before the deadline runs
// in full, one that starts after it is skipped (see overload.go), and a
// report with a skipped metric is marked Truncated. A zero deadline disables
// budgeting entirely.
func AnalyzeMonitorsDeadline(monitors []*Monitor, tv int64, lookBack, workers int, deadline time.Time) ([]ComponentReport, PoolStats) {
	reports, stats, _ := analyzeMonitorsOpts(monitors, tv, lookBack, workers, false, deadline)
	return reports, stats
}

// AnalyzeMonitorsDeadlineTraced is AnalyzeMonitorsDeadline also recording a
// pipeline trace.
func AnalyzeMonitorsDeadlineTraced(monitors []*Monitor, tv int64, lookBack, workers int, deadline time.Time) ([]ComponentReport, PoolStats, *obs.Trace) {
	return analyzeMonitorsOpts(monitors, tv, lookBack, workers, true, deadline)
}

func analyzeMonitorsOpts(monitors []*Monitor, tv int64, lookBack, workers int, traced bool, deadline time.Time) ([]ComponentReport, PoolStats, *obs.Trace) {
	var stats PoolStats
	cfgs := make([]Config, len(monitors))
	for i, mon := range monitors {
		cfgs[i] = mon.cfg
		if lookBack > 0 {
			cfgs[i].LookBack = lookBack
		}
	}
	if workers == 0 {
		workers = Config{}.workers()
	}
	var (
		tr   *obs.Trace
		root = -1
	)
	if traced {
		tr = obs.NewTrace("analyze", tv)
		root = tr.Start(-1, "analyze")
		tr.AttrInt(root, "tasks", int64(len(monitors)*metric.NumKinds))
	}
	reports := analyzeMonitors(make([]ComponentReport, 0, len(monitors)), monitors, cfgs, tv, workers, &stats, tr, root, deadline)
	tr.End(root)
	return reports, stats, tr
}
