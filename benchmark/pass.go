package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fchain/internal/core"
	"fchain/internal/depgraph"
)

// passOpts shapes one pass over a workload.
type passOpts struct {
	seed    int64
	seconds float64 // measured-phase budget; the floors below still apply
	// setupReps is how many times set-up runs; the median is reported and the
	// last one is kept.
	setupReps int
	minCycles int
	// minSteadySlices is the floor on steady-feed throughput slices.
	minSteadySlices int
	rec             *recorder // non-nil attaches obs sinks and records spans
	// in, when set, reuses inputs another pass generated from the same seed.
	in *inputs
	// oracleChecks bounds how many cycles the reference re-computes.
	oracleChecks int
}

// passResult is everything one pass measured.
type passResult struct {
	Components int
	Digest     string
	Detected   bool
	TV         int64

	SetupS      []float64
	DiscoverMS  float64
	PlacementMS float64

	// History feed: every sample up to the violation, cold rings to full.
	HistorySamples int64
	HistoryS       float64
	CatchupS       float64 // standby catch-up after the history feed
	// Steady feed: equal-work slices on warm, full rings after the cycles.
	SamplesPerSlice int64
	SliceSecs       []float64
	SteadyCatchupS  float64

	HeapStart   uint64 // HeapAlloc after a forced GC when the pass began
	HeapPerComp float64

	LocalizeMS []float64 // the measured cycles' Localize calls
	// Per measured call, from LocalizeResult.Stats.Select (per-slave answer
	// latencies): their mean, the slowest slave's lead over it, and what is
	// left of the call once the slowest slave has answered.
	AskMeanMS, AskSpreadMS, MasterSelfMS []float64
	WirePerLocalize                      float64 // bytes on every daemon's sockets per call

	PromoteMS, RejoinMS, ReplCatchupMS []float64
	PromotedComps                      []float64
	FailoverLocalizeMS                 []float64 // the Localize right after each promotion
	ReplBytesPerSample                 float64
	Nudges                             int // extra cycles run to unstick a catch-up wait

	// Streaming telemetry read from the slaves' registries (traced pass).
	StreamBytes float64 // resident streaming state, all slaves
	StreamColds int64   // analyses that fell back to the batch kernel during the cycles
	StreamTasks int64   // per-stream analyses during the cycles

	Attempted, Failed int64
	Oracle            oracleReport
	DroppedClean      uint64 // sanitizer drops on a healthy trace (must be 0)
	ColdFailovers     int64  // fchain_failover_total{mode=cold}, traced pass only
	GoroutinesLeaked  int
	Notes             []string

	reports []core.ComponentReport // every slave's reports at the final head (traced pass), for the diagnose layer timing
}

func (r *passResult) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// ingestRate is the median equal-work slice of the steady feed, in samples
// per second. Interference on a shared box comes in bursts that slow a few
// slices; the median slice does not move until most of them are hit.
func (r *passResult) ingestRate() float64 {
	return median(sliceRates(r.SamplesPerSlice, r.SliceSecs))
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runPass runs one workload once: set-up (repeated), the history feed, the
// measured {fresh second, Localize} cycles, the measured steady feed,
// tear-down, and the oracle.
func runPass(spec workloadSpec, o passOpts) (*passResult, error) {
	res := &passResult{HeapStart: heapAlloc()}
	goroutines := runtime.NumGoroutine()

	// Set-up: generate the inputs, discover dependencies, start the cluster,
	// place the components.
	var (
		in        *inputs
		deps      *depgraph.Graph
		f         *fleet
		heapReady uint64
	)
	for rep := 0; rep < o.setupReps; rep++ {
		if f != nil {
			f.close()
			f, in, deps = nil, nil, nil
		}
		start := time.Now()
		var err error
		if in = o.in; in == nil {
			if in, err = generate(spec, o.seed); err != nil {
				return nil, err
			}
		}
		var paused time.Duration
		if rep == o.setupReps-1 {
			// "Inputs generated" is the heap baseline; reading it forces a
			// GC that is not part of set-up.
			p0 := time.Now()
			heapReady = heapAlloc()
			paused = time.Since(p0)
		}
		d0 := time.Now()
		deps = depgraph.Discover(in.packets, depgraph.DiscoverConfig{})
		res.DiscoverMS = ms(time.Since(d0))
		if f, err = bringUp(spec, in, deps, o.rec != nil); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, (time.Since(start) - paused).Seconds())
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	res.Components = len(in.comps)
	res.Digest = in.digest
	res.Detected, res.TV = in.detected, in.tv
	res.PlacementMS = ms(f.placement)
	shares := ""
	for _, name := range f.slaveNames() {
		shares += fmt.Sprintf(" %s=%d", name, f.owned[name])
	}
	res.Notes = append(res.Notes, "placement:"+shares)
	perSecond := f.samplesPerSecond()
	budget := time.Duration(o.seconds * float64(time.Second))
	measured := time.Now()

	// History feed: every virtual second up to the violation, closed loop, on
	// nproc feeders (it is the cold start, reported per layer; the measured
	// feeds below use one).
	head := in.first - 1 // last virtual second fed
	feedTo := func(parent, cycle int, name string, to int64, feeders int) time.Duration {
		sp := o.rec.start(parent, cycle, name)
		t0 := time.Now()
		elapsed, busy := f.feed(head+1, to+1, feeders)
		for j, b := range busy {
			o.rec.add(sp, cycle, "feeder:"+strconv.Itoa(j), t0, t0.Add(b))
		}
		o.rec.end(sp)
		res.Attempted += (to - head) * perSecond
		head = to
		return elapsed
	}
	wire0 := f.wireBytes()
	res.HistorySamples = (in.tv - head) * perSecond
	res.HistoryS = feedTo(-1, -1, "bench.feed.history", in.tv, runtime.GOMAXPROCS(0)).Seconds()
	if spec.Standby {
		var took []float64
		if err := f.timedCatchup(o.rec, -1, &took, nil); err != nil {
			return nil, err
		}
		res.CatchupS = took[0] / 1e3
		res.ReplBytesPerSample = float64(f.wireBytes()-wire0) / float64(res.HistorySamples)
	}
	res.HeapPerComp = (float64(heapAlloc()) - float64(heapReady)) / float64(len(in.comps))
	colds0 := f.counterSum("fchain_streaming_cold_total")

	// Measured cycles: one fresh virtual second for every component, then
	// Master.Localize at the new head. One client, closed loop.
	var verdicts []verdict
	var wireLocalize int64
	// A deadline far beyond any run: the slaves budget selection against the
	// time left, and one descheduled task on a busy 2-core box is enough for
	// the default 30 s to read as tight. Deadline behaviour has its own tests.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cycles := 0
	cycle := func(fresh bool) float64 {
		i := cycles
		cycles++
		cy := o.rec.start(-1, i, "bench.cycle")
		if fresh {
			feedTo(cy, i, "bench.feed", head+1, 1)
		}
		res.Attempted++
		w0 := f.wireBytes()
		ls := o.rec.start(cy, i, "bench.localize")
		t0 := time.Now()
		lr, err := f.master.Localize(ctx, head)
		t1 := time.Now()
		o.rec.end(ls)
		o.rec.end(cy)
		wireLocalize += f.wireBytes() - w0
		took := ms(t1.Sub(t0))
		res.LocalizeMS = append(res.LocalizeMS, took)
		switch {
		case err != nil:
			res.fail(1, "cycle %d: Localize: %v", i, err)
			return took
		case lr.Degraded || lr.Truncated || lr.Overloaded:
			res.fail(1, "cycle %d: degraded=%v truncated=%v overloaded=%v errors=%v",
				i, lr.Degraded, lr.Truncated, lr.Overloaded, lr.Errors)
		}
		if sel := lr.Stats.Select; sel.Count > 0 && fresh {
			mean, slowest := float64(sel.SumNS)/float64(sel.Count)/1e6, float64(sel.MaxNS)/1e6
			res.AskMeanMS = append(res.AskMeanMS, mean)
			res.AskSpreadMS = append(res.AskSpreadMS, slowest-mean)
			res.MasterSelfMS = append(res.MasterSelfMS, took-slowest)
		}
		f.graftLocalize(o.rec, ls, i, t0, t1, lr)
		verdicts = append(verdicts, verdict{Cycle: i, TV: head, Diag: signature(lr.Diagnosis), Names: lr.Diagnosis.CulpritNames()})
		return took
	}
	cyclesStart := time.Now()
	cycleBudget := time.Duration((1 - spec.FeedShare) * float64(budget))
	enough := func() bool {
		n := len(res.LocalizeMS)
		return n >= maxCycles || (n >= o.minCycles && time.Since(measured) >= cycleBudget)
	}
	if spec.ChurnRounds > 0 {
		if err := f.churn(spec, o, res, cycle, enough); err != nil {
			return nil, err
		}
	} else {
		for !enough() {
			cycle(true)
		}
	}
	if n := len(res.LocalizeMS); n > 0 {
		res.WirePerLocalize = float64(wireLocalize) / float64(n)
	}
	if spec.Streaming && f.regs != nil {
		res.StreamColds = f.counterSum("fchain_streaming_cold_total") - colds0
		res.StreamTasks = int64(len(res.LocalizeMS)) * perSecond
		for name := range f.slaves {
			res.StreamBytes += f.regs[name].Gauge("fchain_streaming_bytes", "").Value()
		}
	}
	if o.rec != nil {
		res.reports = f.gatherReports(head)
	}
	cyclesDone := time.Now()

	// Measured steady feed: the trace carries on past the last cycle (and
	// repeats with a time offset once the simulated horizon is reached) in
	// equal-work slices. Rings are full and models warm, which is how a
	// slave spends its life; the history feed above is the cold start.
	res.SamplesPerSlice = perSecond * spec.SliceSec
	steady := o.rec.start(-1, -1, "bench.feed.steady")
	for n := 0; n < o.minSteadySlices || time.Since(measured) < budget; n++ {
		res.SliceSecs = append(res.SliceSecs, feedTo(steady, -1, "bench.feed.slice", head+spec.SliceSec, 1).Seconds())
	}
	o.rec.end(steady)
	if spec.Standby {
		var took []float64
		nudge := func() { feedTo(-1, -1, "bench.feed", head+1, 1) }
		if err := f.timedCatchup(o.rec, -1, &took, nudge); err != nil {
			return nil, err
		}
		res.SteadyCatchupS = took[0] / 1e3
	}

	res.Failed += f.ingestErr.Load()
	if spec.Fault == "" {
		for _, sl := range f.slaves {
			for _, q := range sl.Quality() {
				res.DroppedClean += q.Stats.Dropped()
			}
		}
		if res.DroppedClean > 0 {
			res.fail(int64(res.DroppedClean), "%d samples dropped on a clean trace", res.DroppedClean)
		}
	}
	if f.regs != nil {
		res.ColdFailovers = f.regs["master"].CounterWith("fchain_failover_total", "", map[string]string{"mode": "cold"}).Value()
		if res.ColdFailovers > 0 {
			res.fail(res.ColdFailovers, "%d cold failovers", res.ColdFailovers)
		}
	}

	cfg := f.cfg
	f.close()
	f = nil
	// Daemons have returned from Close; give detached connection handlers a
	// moment to observe their closed sockets before counting leaks.
	_ = waitUntil(2*time.Second, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
	if leaked := runtime.NumGoroutine() - goroutines; leaked > 0 {
		res.GoroutinesLeaked = leaked
	}

	feedDone := time.Now()
	res.Oracle = verify(in, cfg, deps, verdicts, o.oracleChecks)
	res.Notes = append(res.Notes, fmt.Sprintf("phases: history feed %.2fs (+%.2fs catch-up), cycles %.2fs, steady feed %.2fs, oracle %.2fs",
		res.HistoryS, res.CatchupS, cyclesDone.Sub(cyclesStart).Seconds(), feedDone.Sub(cyclesDone).Seconds(), time.Since(feedDone).Seconds()))
	if res.Nudges > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d catch-up waits needed a nudge cycle", res.Nudges))
	}
	if res.Oracle.Mismatches > 0 {
		res.Notes = append(res.Notes, "oracle: "+res.Oracle.FirstDiff)
	}
	return res, nil
}

// churn spreads the cycles over kill/replace rounds. A round runs its share
// of the measured cycles on a settled cluster (so Localize latency does not
// depend on how much snapshot re-shipping happens to overlap each call),
// waits until every standby has caught up, kills one slave (rotating), times
// the promoting Rebalance, localizes once more at the same head (the
// survivors must answer for the dead slave's components from their shadows),
// starts a replacement, times the Rebalance that folds it in, and waits for
// the standbys again.
func (f *fleet) churn(spec workloadSpec, o passOpts, res *passResult, cycle func(fresh bool) float64, enough func() bool) error {
	perRound := (o.minCycles + spec.ChurnRounds - 1) / spec.ChurnRounds
	nudge := func() { res.Nudges++; cycle(true) }
	for round := 0; round < spec.ChurnRounds || !enough(); round++ {
		for i := 0; i < perRound; i++ {
			cycle(true)
		}
		// Every sample must be on its standby before the kill: a promotion
		// is only warm, and only exact, from a caught-up shadow. The cycles
		// above also flushed the sanitizers' reorder buffers (Localize does),
		// which hold the newest seconds back from the model and so from
		// replication; nothing the reference has seen is still in flight.
		if err := f.timedCatchup(o.rec, round, nil, nudge); err != nil {
			return err
		}
		names := f.slaveNames()
		victim := names[round%len(names)]
		res.PromotedComps = append(res.PromotedComps, float64(f.owned[victim]))
		if err := f.kill(victim); err != nil {
			return err
		}
		if err := f.timedRebalance(o.rec, round, "promote", &res.PromoteMS, res); err != nil {
			return err
		}
		res.FailoverLocalizeMS = append(res.FailoverLocalizeMS, cycle(false))
		res.LocalizeMS = res.LocalizeMS[:len(res.LocalizeMS)-1]
		f.generation++
		if err := f.addSlave(fmt.Sprintf("slave-r%d", f.generation), f.generation); err != nil {
			return err
		}
		if err := f.timedRebalance(o.rec, round, "rejoin", &res.RejoinMS, res); err != nil {
			return err
		}
		if err := f.timedCatchup(o.rec, round, &res.ReplCatchupMS, nudge); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) timedCatchup(rec *recorder, round int, into *[]float64, nudge func()) error {
	sp := rec.start(-1, round, "bench.catchup")
	t0 := time.Now()
	err := f.waitReplicated(nudge)
	rec.end(sp)
	if into != nil {
		*into = append(*into, ms(time.Since(t0)))
	}
	return err
}

func (f *fleet) timedRebalance(rec *recorder, round int, kind string, into *[]float64, res *passResult) error {
	sp := rec.start(-1, round, "bench.rebalance")
	rec.attr(sp, "kind", kind)
	t0 := time.Now()
	_, err := f.master.Rebalance()
	*into = append(*into, ms(time.Since(t0)))
	rec.end(sp)
	res.Attempted++
	if err != nil {
		return fmt.Errorf("%s rebalance: %w", kind, err)
	}
	f.refreshOwnership()
	return nil
}

// counterSum adds one counter over every slave's registry (0 untraced).
func (f *fleet) counterSum(name string) int64 {
	var n int64
	for slave := range f.slaves {
		if reg := f.regs[slave]; reg != nil {
			n += reg.Counter(name, "").Value()
		}
	}
	return n
}

// graftLocalize hangs the program's own spans for one Localize under the
// benchmark's bench.localize span: the master's localize/ask/diagnose tree,
// each ask re-timed from the wire, and every slave's analyze root.
func (f *fleet) graftLocalize(rec *recorder, parent, cycle int, sent, done time.Time, lr core.LocalizeResult) {
	if rec == nil {
		return
	}
	ids := rec.graft(parent, cycle, lr.Trace, 1)
	root := ids["localize"]
	aggSpan := make(map[string]int)
	for i := range f.aggs {
		// An aggregator answered when it last wrote upstream.
		name := aggName(i)
		aggSpan[name] = rec.add(root, cycle, "agg:"+name, sent, clip(f.taps[name].lastWrite(), sent, done))
	}
	for _, name := range f.slaveNames() {
		ask, ok := ids["ask:"+name]
		if !ok {
			continue
		}
		// A slave answered when it last wrote; replication frames written
		// after the answer are clipped to the call's end.
		rec.setInterval(ask, sent, clip(f.taps[name].lastWrite(), sent, done))
		rec.attr(ask, "timed_by", "bench.conn")
		if via, ok := aggSpan[f.via[name]]; ok {
			rec.reparent(ask, via)
		}
		if ring := f.rings[name]; ring != nil {
			if tr := ring.Last(); tr != nil && tr.TV == lr.Trace.TV {
				an := rec.graft(ask, cycle, tr, 0)
				var busy, tasks int64
				for i := range tr.Spans {
					if strings.HasPrefix(tr.Spans[i].Name, "select:") {
						busy += tr.Spans[i].DurNS
						tasks++
					}
				}
				rec.attr(an["analyze"], "select_busy_ns", strconv.FormatInt(busy, 10))
				rec.attr(an["analyze"], "select_tasks", strconv.FormatInt(tasks, 10))
			}
		}
	}
}

// clip bounds t to [lo, hi].
func clip(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
