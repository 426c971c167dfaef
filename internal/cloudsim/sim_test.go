package cloudsim

import (
	"math"
	"testing"

	"fchain/internal/depgraph"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
	"fchain/internal/workload"
)

// Component exposes the runtime state of a component.
func (s *Sim) Component(name string) (*Comp, bool) {
	c, ok := s.comps[name]
	return c, ok
}

// LatencySeries returns the end-to-end latency per tick.
func (s *Sim) LatencySeries() *timeseries.Series {
	return timeseries.New(s.latency.Start(), s.latency.Values())
}

// ProgressSeries returns cumulative completed work per tick.
func (s *Sim) ProgressSeries() *timeseries.Series {
	return timeseries.New(s.progress.Start(), s.progress.Values())
}

// ViolationRatio returns the fraction of ticks in [from, to) with a
// violated SLO.
func (s *Sim) ViolationRatio(from, to int64) float64 {
	w := s.violated.Window(from, to)
	if w.Len() == 0 {
		return 0
	}
	var n float64
	for i := 0; i < w.Len(); i++ {
		n += w.At(i)
	}
	return n / float64(w.Len())
}

// threeTier builds a small web -> {app1, app2} -> db application sized so
// that the steady workload runs at moderate utilization.
func threeTier(trace workload.Trace) AppSpec {
	return AppSpec{
		Name: "test-3tier",
		Components: []ComponentSpec{
			{
				Name: "web", CPUCores: 2, MemoryMB: 2048, NetMBps: 100, DiskMBps: 50,
				CPUCostPerReq: 0.004, MemPerReq: 0.5, NetInPerReq: 0.02, NetOutPerReq: 0.02,
				BaseMemMB: 300, ServiceTime: 0.002, QueueCap: 600,
				Downstream: []Edge{
					{To: "app1", Kind: EdgeBalanced, Weight: 1},
					{To: "app2", Kind: EdgeBalanced, Weight: 1},
				},
			},
			{
				Name: "app1", CPUCores: 2, MemoryMB: 2048, NetMBps: 100, DiskMBps: 50,
				CPUCostPerReq: 0.008, MemPerReq: 0.8, NetInPerReq: 0.01, NetOutPerReq: 0.01,
				BaseMemMB: 500, ServiceTime: 0.01, QueueCap: 400,
				Downstream: []Edge{{To: "db", Kind: EdgeBalanced, Weight: 1}},
			},
			{
				Name: "app2", CPUCores: 2, MemoryMB: 2048, NetMBps: 100, DiskMBps: 50,
				CPUCostPerReq: 0.008, MemPerReq: 0.8, NetInPerReq: 0.01, NetOutPerReq: 0.01,
				BaseMemMB: 500, ServiceTime: 0.01, QueueCap: 400,
				Downstream: []Edge{{To: "db", Kind: EdgeBalanced, Weight: 1}},
			},
			{
				Name: "db", CPUCores: 2, MemoryMB: 3072, NetMBps: 100, DiskMBps: 60,
				CPUCostPerReq: 0.010, MemPerReq: 1.0, NetInPerReq: 0.005, NetOutPerReq: 0.01,
				DiskReadPerReq: 0.05, DiskWritePerReq: 0.02,
				BaseMemMB: 800, ServiceTime: 0.02, QueueCap: 500,
			},
		},
		Entries: []string{"web"},
		Style:   RequestReply,
		SLO:     SLOSpec{Kind: SLOLatency, Threshold: 0.1},
		Trace:   trace,
	}
}

func TestValidateSpec(t *testing.T) {
	good := threeTier(workload.Constant(50))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*AppSpec)
	}{
		{"no components", func(a *AppSpec) { a.Components = nil }},
		{"dup name", func(a *AppSpec) { a.Components = append(a.Components, ComponentSpec{Name: "web"}) }},
		{"unknown edge", func(a *AppSpec) {
			a.Components[0].Downstream = append(a.Components[0].Downstream, Edge{To: "ghost"})
		}},
		{"self edge", func(a *AppSpec) {
			a.Components[0].Downstream = append(a.Components[0].Downstream, Edge{To: "web"})
		}},
		{"no entries", func(a *AppSpec) { a.Entries = nil }},
		{"bad entry", func(a *AppSpec) { a.Entries = []string{"ghost"} }},
		{"no trace", func(a *AppSpec) { a.Trace = nil }},
		{"unnamed", func(a *AppSpec) { a.Components[0].Name = "" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := threeTier(workload.Constant(50))
			tt.mutate(&spec)
			if err := spec.Validate(); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
}

func TestSteadyStateHealthy(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(300)
	if _, found := sim.FirstViolation(30, 3); found {
		lat := sim.LatencySeries()
		t.Fatalf("healthy system violated SLO; final latency=%v", lat.At(lat.Len()-1))
	}
	// Queues must stay bounded.
	for _, name := range sim.Components() {
		c, _ := sim.Component(name)
		if c.Queue > float64(c.Spec.QueueCap)/2 {
			t.Errorf("%s queue grew to %v in steady state", name, c.Queue)
		}
	}
	// Metrics recorded for every tick.
	s, err := sim.Series("db", metric.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 300 {
		t.Errorf("history length = %d, want 300", s.Len())
	}
}

func TestWorkloadDrivesMetrics(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(30)), 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(100)
	low, _ := sim.Series("web", metric.NetIn)
	sim2, err := New(threeTier(workload.Constant(90)), 1)
	if err != nil {
		t.Fatal(err)
	}
	sim2.Step(100)
	high, _ := sim2.Series("web", metric.NetIn)
	lm := mean(low.Values()[50:])
	hm := mean(high.Values()[50:])
	if hm <= lm*1.5 {
		t.Errorf("net_in should scale with workload: low=%v high=%v", lm, hm)
	}
}

func mean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func TestCPUHogCausesViolationAndBackPressure(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewCPUHog(120, 1.9, "db")); err != nil {
		t.Fatal(err)
	}
	sim.Step(400)
	tv, found := sim.FirstViolation(120, 3)
	if !found {
		t.Fatal("CPU hog at db should violate the SLO")
	}
	if tv < 120 {
		t.Fatalf("violation at %d, before injection", tv)
	}
	// The db CPU metric must jump right at injection.
	dbCPU, _ := sim.Series("db", metric.CPU)
	before := mean(dbCPU.Values()[60:110])
	after := mean(dbCPU.Values()[125:175])
	if after < before+20 {
		t.Errorf("db CPU should jump under hog: before=%v after=%v", before, after)
	}
	// Back-pressure: the app tier's queues (memory metric) must rise after
	// injection, i.e. the anomaly propagates upstream.
	appMem, _ := sim.Series("app1", metric.Memory)
	bm := mean(appMem.Values()[60:110])
	am := mean(appMem.Values()[200:300])
	if am < bm*1.1 {
		t.Errorf("app1 memory should grow via back-pressure: before=%v after=%v", bm, am)
	}
}

func TestBackPressureTiming(t *testing.T) {
	// The db's own symptom must precede the upstream symptom by at least a
	// couple of seconds — the ordering FChain's localization depends on.
	sim, err := New(threeTier(workload.Constant(60)), 3)
	if err != nil {
		t.Fatal(err)
	}
	const inject = 100
	if err := sim.Inject(NewCPUHog(inject, 1.9, "db")); err != nil {
		t.Fatal(err)
	}
	sim.Step(300)
	dbCPU, _ := sim.Series("db", metric.CPU)
	webMem, _ := sim.Series("web", metric.Memory)
	dbOnset := firstExceed(dbCPU.Values(), inject, mean(dbCPU.Values()[40:90])+15)
	webOnset := firstExceed(webMem.Values(), inject, mean(webMem.Values()[40:90])*1.10)
	if dbOnset < 0 || webOnset < 0 {
		t.Fatalf("onsets not found: db=%d web=%d", dbOnset, webOnset)
	}
	if webOnset <= dbOnset {
		t.Errorf("web symptom (%d) should lag db symptom (%d)", webOnset, dbOnset)
	}
}

// firstExceed returns the first index >= from where vals exceeds thresh.
func firstExceed(vals []float64, from int, thresh float64) int {
	for i := from; i < len(vals); i++ {
		if vals[i] > thresh {
			return i
		}
	}
	return -1
}

func TestMemLeakGradualManifestation(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewMemLeak(100, 20, "db")); err != nil {
		t.Fatal(err)
	}
	sim.Step(600)
	tv, found := sim.FirstViolation(100, 3)
	if !found {
		t.Fatal("memory leak should eventually violate the SLO")
	}
	if tv < 130 {
		t.Errorf("memleak manifested at %d; should be gradual (>= 30s after injection)", tv)
	}
	memS, _ := sim.Series("db", metric.Memory)
	if memS.At(550) <= memS.At(90)*1.5 {
		t.Error("db memory metric should grow substantially under the leak")
	}
}

func TestNetHogLimitsEntry(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewNetHog(100, 99.5, "web")); err != nil {
		t.Fatal(err)
	}
	sim.Step(300)
	if _, found := sim.FirstViolation(100, 3); !found {
		t.Fatal("net hog at web should violate the SLO")
	}
	webIn, _ := sim.Series("web", metric.NetIn)
	if mean(webIn.Values()[120:160]) < mean(webIn.Values()[40:90])*2 {
		t.Error("web net_in should spike under the hog")
	}
	// Downstream tiers see *less* traffic (downward change).
	dbCPU, _ := sim.Series("db", metric.CPU)
	if mean(dbCPU.Values()[150:250]) >= mean(dbCPU.Values()[40:90]) {
		t.Error("db CPU should drop when web is choked")
	}
}

func TestBottleneckFault(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewBottleneck(100, 0.05, "app1")); err != nil {
		t.Fatal(err)
	}
	sim.Step(300)
	if _, found := sim.FirstViolation(100, 3); !found {
		t.Error("bottleneck cap should violate the SLO")
	}
}

func TestLBBugSkewsLoad(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewLBBug(100, "web", map[string]float64{"app1": 0.95, "app2": 0.05}, 0)); err != nil {
		t.Fatal(err)
	}
	sim.Step(400)
	a1, _ := sim.Series("app1", metric.CPU)
	a2, _ := sim.Series("app2", metric.CPU)
	if mean(a1.Values()[150:250]) < mean(a2.Values()[150:250])*2 {
		t.Errorf("app1 should be far busier than app2 under the LB bug: %v vs %v",
			mean(a1.Values()[150:250]), mean(a2.Values()[150:250]))
	}
}

func TestInjectUnknownTarget(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(10)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewCPUHog(0, 1, "ghost")); err == nil {
		t.Error("injecting into unknown component should error")
	}
}

func TestScaleResourceValidation(t *testing.T) {
	// The online-validation primitive: scaling the right resource on the
	// true culprit relieves the violation; scaling an innocent component
	// does not.
	build := func() *Sim {
		sim, err := New(threeTier(workload.Constant(60)), 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Inject(NewCPUHog(100, 1.9, "db")); err != nil {
			t.Fatal(err)
		}
		sim.Step(200)
		return sim
	}

	culprit := build().Clone()
	if err := culprit.ScaleResource("db", metric.CPU, 3); err != nil {
		t.Fatal(err)
	}
	culprit.RunUntil(260)
	if r := culprit.ViolationRatio(230, 260); r > 0.3 {
		t.Errorf("scaling the culprit's CPU should clear the violation; ratio=%v", r)
	}

	innocent := build().Clone()
	if err := innocent.ScaleResource("web", metric.CPU, 3); err != nil {
		t.Fatal(err)
	}
	innocent.RunUntil(260)
	if r := innocent.ViolationRatio(230, 260); r < 0.7 {
		t.Errorf("scaling an innocent component should not clear the violation; ratio=%v", r)
	}
}

func TestScaleResourceErrors(t *testing.T) {
	sim, _ := New(threeTier(workload.Constant(10)), 1)
	if err := sim.ScaleResource("ghost", metric.CPU, 2); err == nil {
		t.Error("unknown component should error")
	}
	if err := sim.ScaleResource("db", metric.Kind(99), 2); err == nil {
		t.Error("invalid kind should error")
	}
	if err := sim.ScaleResource("db", metric.CPU, 0); err == nil {
		t.Error("zero factor should error")
	}
}

func TestCloneIndependence(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewCPUHog(50, 1.9, "db")); err != nil {
		t.Fatal(err)
	}
	sim.Step(100)
	clone := sim.Clone()
	if err := clone.ScaleResource("db", metric.CPU, 4); err != nil {
		t.Fatal(err)
	}
	clone.Step(100)
	sim.Step(100)
	// The original must still be degraded, the clone recovered.
	if r := sim.ViolationRatio(150, 200); r < 0.5 {
		t.Errorf("original sim should remain violated, ratio=%v", r)
	}
	if r := clone.ViolationRatio(150, 200); r > 0.3 {
		t.Errorf("scaled clone should recover, ratio=%v", r)
	}
	// Histories diverge only after the clone point.
	a, _ := sim.Series("db", metric.CPU)
	b, _ := clone.Series("db", metric.CPU)
	for i := 0; i < 100; i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("pre-clone history differs at %d", i)
		}
	}
}

func TestSeriesErrors(t *testing.T) {
	sim, _ := New(threeTier(workload.Constant(10)), 1)
	if _, err := sim.Series("ghost", metric.CPU); err == nil {
		t.Error("unknown component should error")
	}
	if _, err := sim.Series("db", metric.Kind(0)); err == nil {
		t.Error("invalid kind should error")
	}
}

func TestDependencyTraceRequestReply(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 10)
	if err != nil {
		t.Fatal(err)
	}
	pkts := sim.DependencyTrace(300, 1)
	g := depgraph.Discover(pkts, depgraph.DiscoverConfig{})
	for _, e := range [][2]string{{"web", "app1"}, {"web", "app2"}, {"app1", "db"}, {"app2", "db"}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("discovery missed edge %s->%s; graph: %s", e[0], e[1], g)
		}
	}
}

func TestDependencyTraceStreaming(t *testing.T) {
	spec := threeTier(workload.Constant(60))
	spec.Style = Streaming
	sim, err := New(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	pkts := sim.DependencyTrace(120, 1)
	g := depgraph.Discover(pkts, depgraph.DiscoverConfig{})
	if !g.Empty() {
		t.Errorf("streaming trace should defeat discovery; graph: %s", g)
	}
}

func TestTopologyGraph(t *testing.T) {
	sim, _ := New(threeTier(workload.Constant(10)), 1)
	g := sim.TopologyGraph()
	if !g.HasEdge("web", "app1") || !g.HasEdge("app1", "db") {
		t.Errorf("topology graph wrong: %s", g)
	}
	if g.HasEdge("db", "app1") {
		t.Error("topology graph should be directed")
	}
}

func TestReverseTopoOrder(t *testing.T) {
	sim, _ := New(threeTier(workload.Constant(10)), 1)
	pos := make(map[string]int)
	for i, n := range sim.order {
		pos[n] = i
	}
	// Every component must appear after its downstream targets.
	for _, n := range sim.Components() {
		c, _ := sim.Component(n)
		for _, e := range c.Spec.Downstream {
			if pos[e.To] > pos[n] {
				t.Errorf("%s processed before its downstream %s", n, e.To)
			}
		}
	}
}

func TestProgressSLO(t *testing.T) {
	spec := threeTier(workload.Constant(60))
	spec.SLO = SLOSpec{Kind: SLOProgress, StallWindow: 30, StallFraction: 0.05}
	sim, err := New(spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewCPUHog(200, 1.998, "web")); err != nil {
		t.Fatal(err)
	}
	sim.Step(500)
	if _, found := sim.FirstViolation(0, 1); !found {
		t.Error("a hard stall should violate the progress SLO")
	}
	if tv, found := sim.FirstViolation(0, 1); found && tv < 200 {
		t.Errorf("progress violation at %d precedes the fault", tv)
	}
}

func TestMetricsNonNegativeAndFinite(t *testing.T) {
	sim, err := New(threeTier(workload.NewSynthetic(workload.NASA(), 600, 3)), 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewMemLeak(100, 30, "db")); err != nil {
		t.Fatal(err)
	}
	sim.Step(600)
	for _, name := range sim.Components() {
		for _, k := range metric.Kinds {
			s, err := sim.Series(name, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.Len(); i++ {
				v := s.At(i)
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s/%s[%d] = %v", name, k, i, v)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		sim, err := New(threeTier(workload.NewSynthetic(workload.NASA(), 400, 5)), 21)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Inject(NewCPUHog(100, 1.5, "db")); err != nil {
			t.Fatal(err)
		}
		sim.Step(400)
		s, _ := sim.Series("db", metric.CPU)
		return s.Values()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("simulation not deterministic at tick %d", i)
		}
	}
}

// joinApp builds src1 -> a -> j, src2 -> j, j -> sink with j a stream join.
func joinApp(trace workload.Trace) AppSpec {
	mk := func(name string, cost float64, down ...Edge) ComponentSpec {
		return ComponentSpec{
			Name: name, CPUCores: 2, MemoryMB: 2048, NetMBps: 200, DiskMBps: 100,
			CPUCostPerReq: cost, MemPerReq: 0.2, NetInPerReq: 0.002, NetOutPerReq: 0.002,
			BaseMemMB: 200, ServiceTime: 0.002, QueueCap: 300, Downstream: down,
		}
	}
	j := mk("j", 0.004, Edge{To: "sink", Kind: EdgeAll})
	j.Join = true
	return AppSpec{
		Name: "test-join",
		Components: []ComponentSpec{
			mk("src1", 0.003, Edge{To: "a", Kind: EdgeAll}),
			mk("a", 0.004, Edge{To: "j", Kind: EdgeAll}),
			mk("src2", 0.003, Edge{To: "j", Kind: EdgeAll}),
			j,
			mk("sink", 0.002),
		},
		Entries: []string{"src1", "src2"},
		Style:   Streaming,
		SLO:     SLOSpec{Kind: SLOLatency, Threshold: 0.1},
		Trace:   trace,
	}
}

func TestJoinStarvationBackPressure(t *testing.T) {
	// Slowing "a" starves the join's a-input; tuples from src2 pile up in
	// the join, eventually back-pressuring src2 — the Fig. 2 mechanism
	// (PE3 -> PE6 -> PE2).
	sim, err := New(joinApp(workload.Constant(100)), 14)
	if err != nil {
		t.Fatal(err)
	}
	const inject = 100
	if err := sim.Inject(NewCPUHog(inject, 1.95, "a")); err != nil {
		t.Fatal(err)
	}
	sim.Step(400)
	// The join's queue (src2 side) must fill.
	j, _ := sim.Component("j")
	if j.SrcQueue["src2"] < 100 {
		t.Errorf("join src2 queue = %v, want large (starved join)", j.SrcQueue["src2"])
	}
	// src2's queue must eventually grow via back-pressure.
	src2, _ := sim.Component("src2")
	if src2.Queue < 50 {
		t.Errorf("src2 queue = %v, want back-pressured", src2.Queue)
	}
	// Ordering: a's CPU symptom precedes src2's memory symptom.
	aCPU, _ := sim.Series("a", metric.CPU)
	src2Mem, _ := sim.Series("src2", metric.Memory)
	aOnset := firstExceed(aCPU.Values(), inject, mean(aCPU.Values()[40:90])+20)
	s2Onset := firstExceed(src2Mem.Values(), inject, mean(src2Mem.Values()[40:90])*1.1)
	if aOnset < 0 || s2Onset < 0 {
		t.Fatalf("onsets not found: a=%d src2=%d", aOnset, s2Onset)
	}
	if s2Onset <= aOnset+1 {
		t.Errorf("src2 symptom (%d) should clearly lag a's (%d)", s2Onset, aOnset)
	}
}

func TestJoinHealthySteadyState(t *testing.T) {
	sim, err := New(joinApp(workload.Constant(100)), 15)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(300)
	if _, found := sim.FirstViolation(30, 3); found {
		t.Error("balanced join inputs should not violate the SLO")
	}
	j, _ := sim.Component("j")
	if j.Queue > 150 {
		t.Errorf("join queue grew to %v in steady state", j.Queue)
	}
}
