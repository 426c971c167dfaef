package core

import (
	"sync"
	"time"

	"fchain/internal/metric"
	"fchain/internal/obs"
)

// This file implements the analysis engine every selection pass goes
// through — Monitor.Analyze, the Localizer, and the slave's AnalyzeMonitors
// calls alike: one serial loop over the monitors, or a bounded worker pool
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

// analyze is the engine entry point: it analyzes every monitor at tv,
// appending one report per monitor to dst (reset to length 0 first) in
// monitor order. lookBack > 0 overrides each monitor's configured look-back
// window; parallelism follows the Config.Parallelism convention, and a
// single monitor or none always runs serially. With a non-nil trace an
// analyze span under parent carries the task count (and the look-back
// override), with component and selection spans beneath. A non-zero deadline
// skips every task that starts after it (see overload.go); with a zero
// deadline the output is deterministic and bit-identical at any worker count.
func analyze(dst []ComponentReport, monitors []*Monitor, tv int64, lookBack, parallelism int, tr *obs.Trace, parent int, deadline time.Time) ([]ComponentReport, PoolStats) {
	numTasks := len(monitors) * metric.NumKinds
	an := -1
	if tr != nil {
		an = tr.Start(parent, "analyze")
		tr.AttrInt(an, "tasks", int64(numTasks))
		if lookBack > 0 {
			tr.AttrInt(an, "lookback", int64(lookBack))
		}
	}
	if dst == nil || cap(dst) < len(monitors) {
		dst = make([]ComponentReport, 0, len(monitors))
	} else {
		dst = dst[:0]
	}
	if workers := min(workerCount(parallelism), numTasks); workers > 1 && len(monitors) > 1 {
		dst, stats := analyzePool(dst, monitors, tv, lookBack, workers, tr, an, deadline)
		tr.End(an)
		return dst, stats
	}
	// The serial path's stats are a separate variable from the pool's on
	// purpose: the pool leaks its stats pointer into worker goroutines, and
	// sharing one variable would heap-allocate it on this allocation-free
	// path too.
	stats := PoolStats{Workers: 1, Tasks: numTasks}
	a := getArena()
	for _, mon := range monitors {
		dst = append(dst, mon.analyzeComponent(tv, lookBack, a, &stats, tr, an, deadline))
	}
	putArena(a)
	tr.End(an)
	return dst, stats
}

// analyzePool is the engine's parallel path: workers goroutines run the
// (component, metric) tasks, and the reports and sub-traces are assembled
// in canonical order afterwards.
func analyzePool(dst []ComponentReport, monitors []*Monitor, tv int64, lookBack, workers int, tr *obs.Trace, parent int, deadline time.Time) ([]ComponentReport, PoolStats) {
	numTasks := len(monitors) * metric.NumKinds
	stats := PoolStats{Workers: workers, Tasks: numTasks}

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
		panic   string
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
				ch, ok, st, panicMsg := mon.analyzeMetric(tv, k, mon.config(lookBack), a, sub, -1, skipped)
				hist.Observe(time.Since(t0).Nanoseconds())
				results[idx] = taskResult{ch: ch, ok: ok, st: st, panic: panicMsg, skipped: skipped, sub: sub}
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
			accumulateMetric(&rep, r.ch, r.ok, r.st, r.panic, r.skipped, metric.Kinds[ki], &stats)
		}
		finishReport(&rep)
		if tr != nil {
			annotateComponentSpan(tr, comp, rep)
			tr.End(comp)
		}
		dst = append(dst, rep)
	}
	return dst, stats
}

// AnalyzeMonitors analyzes several independent monitors on one bounded
// worker pool, fanning out per (component, metric) task: the slave daemon
// uses it to answer a master's analyze request with all local components in
// flight at once. lookBack > 0 overrides each monitor's configured look-back
// window; workers follows the Config.Parallelism convention (0 =
// GOMAXPROCS, 1 = serial). Reports are returned in monitor order and are
// bit-identical to analyzing each monitor serially.
func AnalyzeMonitors(monitors []*Monitor, tv int64, lookBack, workers int) ([]ComponentReport, PoolStats) {
	reports, stats, _ := AnalyzeMonitorsDeadline(monitors, tv, lookBack, workers, time.Time{}, false)
	return reports, stats
}

// AnalyzeMonitorsDeadline is AnalyzeMonitors budgeting the selection work
// against a wall-clock deadline: a task that starts before the deadline runs
// in full, one that starts after it is skipped (see overload.go), and a
// report with a skipped metric is marked Truncated. A zero deadline disables
// budgeting entirely. With traced set it also returns a pipeline trace: an
// analyze root span with one component:<name> span per monitor and
// select:<metric> spans beneath, identical in structure at any worker count;
// otherwise the trace is nil.
func AnalyzeMonitorsDeadline(monitors []*Monitor, tv int64, lookBack, workers int, deadline time.Time, traced bool) ([]ComponentReport, PoolStats, *obs.Trace) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace("analyze", tv)
	}
	reports, stats := analyze(nil, monitors, tv, lookBack, workers, tr, -1, deadline)
	return reports, stats, tr
}
