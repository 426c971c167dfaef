package main

// The micro-benchmark harness behind -bench/-json/-check: a self-contained
// equivalent of `go test -bench '^BenchmarkModule'` that needs no testing
// binary, so the CI smoke job and operators get machine-readable numbers
// from the shipped command. Allocation counts come from the monotonic
// runtime counters (Mallocs/TotalAlloc), so a GC mid-run does not skew
// them.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"fchain"
	"fchain/internal/benchjson"
	"fchain/internal/core"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
	"fchain/scenario"
)

// benchMinTime is how long each timed measurement must run; calibration
// grows the iteration count until a run lasts at least this long.
const benchMinTime = 200 * time.Millisecond

// measure times fn(n) with increasing n until one run lasts benchMinTime.
func measure(name string, fn func(n int)) benchjson.Result {
	n := 1
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= benchMinTime {
			return benchjson.Result{
				Name:        name,
				Iterations:  n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
				BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
			}
		}
		// Aim 20% past the target like testing.B, bounded to [2x, 100x].
		next := int(1.2 * float64(n) * float64(benchMinTime) / float64(elapsed+1))
		if next < 2*n {
			next = 2 * n
		}
		if next > 100*n {
			next = 100 * n
		}
		n = next
	}
}

// moduleBenchmarks mirrors the BenchmarkModule* group in bench_test.go:
// Table II's per-module overhead measurements on the real pipeline.
func moduleBenchmarks() []benchjson.Result {
	kinds := fchain.Kinds()
	var out []benchjson.Result

	out = append(out, measure("ModuleMonitoring", func(n int) {
		loc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"c"})
		for i := 0; i < n; i++ {
			t := int64(i)
			for _, k := range kinds {
				if err := loc.Observe("c", t, k, float64(50+i%17)); err != nil {
					panic(err)
				}
			}
		}
	}))

	out = append(out, measure("ModuleModeling1000", func(n int) {
		for i := 0; i < n; i++ {
			loc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"c"})
			for t := int64(0); t < 1000; t++ {
				for _, k := range kinds {
					if err := loc.Observe("c", t, k, float64(40+t%23)); err != nil {
						panic(err)
					}
				}
			}
		}
	}))

	// Selection setup happens once, outside the timed region: steady state
	// is a warm daemon reusing the report buffer and pooled arenas.
	selLoc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"c"})
	for t := int64(0); t < 2000; t++ {
		for _, k := range kinds {
			if err := selLoc.Observe("c", t, k, float64(40+t%23)+float64(t%7)); err != nil {
				panic(err)
			}
		}
	}
	var reports []fchain.ComponentReport
	out = append(out, measure("ModuleSelection", func(n int) {
		for i := 0; i < n; i++ {
			reports = selLoc.AnalyzeInto(reports, 1999)
		}
	}))

	// The same pass on a signal with something to judge: every metric has a
	// detected step inside the look-back window, so each stream pays for the
	// context order statistics, the FFT burst extraction and the filter too.
	// ModuleSelection above stops after CUSUM finds nothing.
	noisyLoc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"c"})
	for _, k := range kinds {
		for t, v := range benchjson.NoisyStepSignal(int64(k)+1, 2000) {
			if err := noisyLoc.Observe("c", int64(t), k, v); err != nil {
				panic(err)
			}
		}
	}
	out = append(out, measure("ModuleSelectionNoisy", func(n int) {
		for i := 0; i < n; i++ {
			reports = noisyLoc.AnalyzeInto(reports, 1999)
		}
	}))

	// Streaming selection in its operating mode: every iteration observes
	// one fresh second and analyzes at the new stream head, so the memoized
	// verdict never answers and the measurement is the honest incremental
	// cost (observe amortization + warm-state assembly), not a cache hit.
	streamCfg := fchain.DefaultConfig()
	streamCfg.Streaming = true
	strLoc := fchain.NewLocalizer(streamCfg, []string{"c"})
	for t := int64(0); t < 2000; t++ {
		for _, k := range kinds {
			if err := strLoc.Observe("c", t, k, float64(40+t%23)+float64(t%7)); err != nil {
				panic(err)
			}
		}
	}
	ts := int64(2000)
	out = append(out, measure("ModuleSelectionStreaming", func(n int) {
		for i := 0; i < n; i++ {
			for _, k := range kinds {
				if err := strLoc.Observe("c", ts, k, float64(40+ts%23)+float64(ts%7)); err != nil {
					panic(err)
				}
			}
			reports = strLoc.AnalyzeInto(reports, ts)
			ts++
		}
	}))

	diagReports := make([]fchain.ComponentReport, 7)
	for i := range diagReports {
		diagReports[i] = fchain.ComponentReport{Component: string(rune('a' + i))}
	}
	diagReports[2].Changes = []fchain.AbnormalChange{{
		Component: "c", Metric: fchain.CPU, ChangeAt: 95, Onset: 90,
		PredErr: 10, Expected: 1, Magnitude: 12,
	}}
	diagReports[2].Onset = 90
	deps := fchain.NewDependencyGraph()
	deps.AddEdge("a", "b", 1)
	deps.AddEdge("b", "c", 1)
	cfg := fchain.DefaultConfig()
	out = append(out, measure("ModuleDiagnosis", func(n int) {
		for i := 0; i < n; i++ {
			_ = fchain.Diagnose(diagReports, len(diagReports), deps, cfg)
		}
	}))

	view := timeseries.FromFunc(0, 2000, func(i int) float64 { return float64(40 + i%23) })
	out = append(out, measure("ModuleWindowView", func(n int) {
		for i := 0; i < n; i++ {
			w := view.WindowView(1880, 2000)
			if len(w.ValuesView()) != 120 {
				panic("bad window")
			}
		}
	}))

	ring := timeseries.NewRing(1024)
	for t := int64(0); t < 4096; t++ {
		ring.Push(t, float64(t%97))
	}
	scratch := &timeseries.Series{}
	ring.SeriesInto(scratch) // warm the scratch capacity
	out = append(out, measure("ModuleSeriesInto", func(n int) {
		for i := 0; i < n; i++ {
			if ring.SeriesInto(scratch).Len() != 1024 {
				panic("bad materialization")
			}
		}
	}))

	return out
}

// scenarioBenchmarks times full figure regeneration serially and with four
// workers, asserting along the way that the two reports are byte-identical
// (the parallel engine's determinism contract). Each configuration runs
// once — these are seconds-scale campaigns.
func scenarioBenchmarks(runs int) ([]benchjson.Result, []string, error) {
	timeRun := func(name, id string, workers int) (benchjson.Result, string, error) {
		start := time.Now()
		out, err := scenario.RunWith(id, scenario.RunOptions{Runs: runs, Workers: workers, OmitTiming: true})
		if err != nil {
			return benchjson.Result{}, "", fmt.Errorf("%s: %w", id, err)
		}
		elapsed := time.Since(start)
		return benchjson.Result{Name: name, Iterations: 1, NsPerOp: float64(elapsed.Nanoseconds())}, out, nil
	}
	var results []benchjson.Result
	var notes []string
	for _, id := range []string{scenario.Figure6, scenario.Figure9} {
		serial, serialOut, err := timeRun("Scenario/"+id+"/serial", id, 1)
		if err != nil {
			return nil, nil, err
		}
		par, parOut, err := timeRun("Scenario/"+id+"/workers4", id, 4)
		if err != nil {
			return nil, nil, err
		}
		if serialOut != parOut {
			return nil, nil, fmt.Errorf("%s: parallel report differs from serial report", id)
		}
		results = append(results, serial, par)
		notes = append(notes, fmt.Sprintf("%s runs=%d: serial %.2fs, 4 workers %.2fs (%.2fx, on %d CPU(s)); outputs byte-identical",
			id, runs, serial.NsPerOp/1e9, par.NsPerOp/1e9, serial.NsPerOp/par.NsPerOp, runtime.NumCPU()))
	}
	return results, notes, nil
}

// runBench executes the benchmark suite and optionally writes the JSON
// report. withScenarios also times full figure regeneration (seconds per
// entry; skipped by -check, which needs to stay fast and noise-free).
func runBench(jsonPath string, benchRuns int, withScenarios bool) (*benchjson.Report, error) {
	report := &benchjson.Report{
		Date:       time.Now().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	report.Results = moduleBenchmarks()
	if withScenarios {
		scen, notes, err := scenarioBenchmarks(benchRuns)
		if err != nil {
			return nil, err
		}
		report.Results = append(report.Results, scen...)
		report.Notes = append(report.Notes, notes...)
	}
	report.Sort()
	for _, r := range report.Results {
		fmt.Printf("%-28s %12.0f ns/op %10.0f B/op %8.1f allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	for _, n := range report.Notes {
		fmt.Println("#", n)
	}
	if jsonPath != "" {
		if err := benchjson.Write(jsonPath, report); err != nil {
			return nil, err
		}
		fmt.Println("benchmark report written to", jsonPath)
	}
	return report, nil
}

// runCheck re-measures the module benchmarks and fails if any regressed
// past the threshold against the committed baseline. Scenario wall times
// are informational (full campaigns on shared CI machines are too noisy to
// gate on) and are not compared.
func runCheck(baselinePath string, threshold float64) error {
	baseline, err := benchjson.Read(baselinePath)
	if err != nil {
		return err
	}
	modules := &benchjson.Report{}
	for _, r := range baseline.Results {
		if len(r.Name) >= 6 && r.Name[:6] == "Module" {
			modules.Results = append(modules.Results, r)
		}
	}
	if len(modules.Results) == 0 {
		return fmt.Errorf("baseline %s has no Module* benchmarks to check against", baselinePath)
	}
	current, err := runBench("", 0, false)
	if err != nil {
		return err
	}
	regressions, missing := benchjson.Compare(modules, current, threshold)
	for _, name := range missing {
		fmt.Printf("MISSING %s: benchmark in baseline but not measured\n", name)
	}
	for _, g := range regressions {
		fmt.Println("REGRESSION", g)
	}
	if len(regressions) > 0 || len(missing) > 0 {
		return fmt.Errorf("%d regression(s), %d missing benchmark(s) vs %s (threshold %.0f%%)",
			len(regressions), len(missing), baselinePath, threshold*100)
	}
	fmt.Printf("benchmarks within %.0f%% of %s\n", threshold*100, baselinePath)
	if err := slaveAnswerCheck(); err != nil {
		return err
	}
	if err := idleOverheadCheck(idleOverheadLimit); err != nil {
		return err
	}
	return replOverheadCheck(replOverheadLimit)
}

// slaveAnswerLimit caps the 99th-percentile latency of a warm streaming
// slave's analyze answer.
const slaveAnswerLimit = time.Millisecond

// slaveAnswerCheck drives a warm streaming monitor the way a slave answers
// the master — one fresh second observed, then a full analyze at the new
// stream head — and requires the answer p99 to stay under slaveAnswerLimit.
func slaveAnswerCheck() error {
	cfg := core.DefaultConfig()
	cfg.Streaming = true
	mon := core.NewMonitor("c", cfg)
	for t := int64(0); t < 2000; t++ {
		for _, k := range metric.Kinds {
			if err := mon.Observe(t, k, float64(40+t%23)+float64(t%7)); err != nil {
				return err
			}
		}
	}
	monitors := []*core.Monitor{mon}
	const rounds = 300
	lat := make([]time.Duration, 0, rounds)
	for ts := int64(2000); ts < 2000+rounds; ts++ {
		for _, k := range metric.Kinds {
			if err := mon.Observe(ts, k, float64(40+ts%23)+float64(ts%7)); err != nil {
				return err
			}
		}
		start := time.Now()
		core.AnalyzeMonitors(monitors, ts, 0, 1)
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	fmt.Printf("slave answer latency: p50 %v, p99 %v (limit %v)\n", lat[len(lat)/2], p99, slaveAnswerLimit)
	if p99 > slaveAnswerLimit {
		return fmt.Errorf("warm streaming slave answer p99 %v exceeds %v", p99, slaveAnswerLimit)
	}
	return nil
}

// idleOverheadLimit caps how much the deadline/admission plumbing may slow
// the selection hot path when no deadline pressure exists.
const idleOverheadLimit = 0.02

// idleOverheadCheck verifies the overload machinery is free when idle:
// selection with a far-future deadline must track plain selection within
// idleOverheadLimit on the same warm models. Both sides are measured
// in-process as interleaved best-of-three pairs, so machine speed cancels
// out — unlike the baseline-file comparison, this guard cannot be fooled by
// CI hardware drift.
func idleOverheadCheck(maxOverhead float64) error {
	mon := core.NewMonitor("c", core.DefaultConfig())
	for t := int64(0); t < 2000; t++ {
		for _, k := range metric.Kinds {
			if err := mon.Observe(t, k, float64(40+t%23)+float64(t%7)); err != nil {
				return err
			}
		}
	}
	monitors := []*core.Monitor{mon}
	plainRun := func(n int) {
		for i := 0; i < n; i++ {
			core.AnalyzeMonitors(monitors, 1999, 0, 1)
		}
	}
	budgetRun := func(n int) {
		for i := 0; i < n; i++ {
			core.AnalyzeMonitorsDeadline(monitors, 1999, 0, 1, time.Now().Add(time.Hour))
		}
	}
	// One discarded warm-up pair: the first timed pass pays for cold caches
	// and pool fills, which a 2% gate cannot absorb.
	measure("warmup", plainRun)
	measure("warmup", budgetRun)
	// Best-of-five interleaved pairs: the minimum of five 200ms+ passes is
	// stable to well under the 2% gate even on a single-CPU CI worker.
	plain, budgeted := math.Inf(1), math.Inf(1)
	for round := 0; round < 5; round++ {
		plain = math.Min(plain, measure("IdleSelectionPlain", plainRun).NsPerOp)
		budgeted = math.Min(budgeted, measure("IdleSelectionBudgeted", budgetRun).NsPerOp)
	}
	overhead := budgeted/plain - 1
	fmt.Printf("idle admission overhead: plain %.0f ns/op, budgeted %.0f ns/op (%+.2f%%, limit %.0f%%)\n",
		plain, budgeted, overhead*100, maxOverhead*100)
	if overhead > maxOverhead {
		return fmt.Errorf("deadline-budgeted selection is %.2f%% slower than plain when idle (limit %.0f%%)",
			overhead*100, maxOverhead*100)
	}
	return nil
}

// replOverheadLimit caps how much warm-standby replication may slow the
// Observe hot path: ingestion against a live replicator ticking on the same
// monitor must track ingestion on an unreplicated monitor within this
// fraction.
const replOverheadLimit = 0.05

// replWindowSeconds is how many seconds of samples each replicator tick
// extracts in replOverheadCheck: one 30-second replication interval's worth
// against 1 Hz samples, the shape a deployed delta actually has. The
// benchmark loop ingests millions of samples per wall second, so extraction
// is window-pinned rather than floor-chasing — letting the replicator chase
// the real head would hand it megabytes per tick, a workload no deployment
// produces, and on a single-CPU worker the timed loop would be billed for
// it.
const replWindowSeconds = 30

// replOverheadCheck verifies replication is free where it matters. Delta
// extraction runs on the slave's replication goroutine, not inside Observe
// — the only cost the ingestion hot path can see is contention on the shard
// locks DeltaInto holds while it extracts. So the replicated side times the
// same Observe loop as the plain side while a background replicator pulls a
// deployment-shaped delta (replWindowSeconds behind the live head) from the
// same monitor every millisecond — 100x denser than the tightest cadence
// the tests ship with — and the interleaved best-of-five gap (machine speed
// cancels out) must stay under replOverheadLimit.
func replOverheadCheck(maxOverhead float64) error {
	mkMonitor := func() *core.Monitor {
		mon := core.NewMonitor("c", core.DefaultConfig())
		for t := int64(0); t < 2000; t++ {
			for _, k := range metric.Kinds {
				if err := mon.Observe(t, k, float64(40+t%23)+float64(t%7)); err != nil {
					panic(err)
				}
			}
		}
		return mon
	}
	plainMon, replMon := mkMonitor(), mkMonitor()
	var plainTS, replTS atomic.Int64
	plainTS.Store(2000)
	replTS.Store(2000)
	observeRun := func(mon *core.Monitor, ts *atomic.Int64) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				t := ts.Load()
				for _, k := range metric.Kinds {
					if err := mon.Observe(t, k, float64(40+t%23)); err != nil {
						panic(err)
					}
				}
				ts.Store(t + 1)
			}
		}
	}
	plainRun, replRun := observeRun(plainMon, &plainTS), observeRun(replMon, &replTS)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var delta core.ReplDelta
		floors := make(map[string]int64, len(metric.Kinds))
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			// Published samples end at head-1, and the window floor sits far
			// inside the retention ring — but if this goroutine is preempted
			// mid-extraction, the timed loop can wrap the ring past the now
			// stale floor and DeltaInto reports the gap (ok=false), exactly as
			// it would to a real replicator. The tick just retries with a
			// fresh head, the cheap analogue of the slave's full resend.
			head := replTS.Load()
			for _, k := range metric.Kinds {
				floors[k.String()] = head - replWindowSeconds
			}
			replMon.DeltaInto(&delta, floors)
		}
	}()
	measure("warmup", plainRun)
	measure("warmup", replRun)
	// An op here is ~400ns — far below the timing noise of a shared or
	// virtualized worker, where CPU-frequency phases and hypervisor steal
	// swing whole 200ms passes by more than the gate. So instead of timing
	// the two sides in separate passes, alternate them in ~2ms chunks inside
	// one long run and compare the summed times: any noise envelope slower
	// than a chunk pair lands on both sides equally and cancels, and faster
	// jitter averages out over the ~1600 chunks.
	// ABBA ordering: alternating which side goes first in each pair cancels
	// any systematic second-chunk effect (scheduler wakeups, boost decay).
	const chunkIters = 5000
	const chunks = 800
	var plainNS, replNS int64
	var iters int64
	timed := func(fn func(n int)) int64 {
		start := time.Now()
		fn(chunkIters)
		return time.Since(start).Nanoseconds()
	}
	for c := 0; c < chunks; c++ {
		if c%2 == 0 {
			plainNS += timed(plainRun)
			replNS += timed(replRun)
		} else {
			replNS += timed(replRun)
			plainNS += timed(plainRun)
		}
		iters += chunkIters
	}
	close(stop)
	<-done
	plain := float64(plainNS) / float64(iters)
	replicated := float64(replNS) / float64(iters)
	overhead := replicated/plain - 1
	fmt.Printf("replication observe overhead: plain %.0f ns/op, replicated %.0f ns/op (%+.2f%%, limit %.0f%%)\n",
		plain, replicated, overhead*100, maxOverhead*100)
	if overhead > maxOverhead {
		return fmt.Errorf("observe against a 1ms replicator is %.2f%% slower than plain (limit %.0f%%)",
			overhead*100, maxOverhead*100)
	}
	return nil
}
