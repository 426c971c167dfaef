package main

import "time"

// workloadSpec is one named set of inputs plus the cluster shape that runs
// them. Every size here is a knob of the benchmark, never of the program:
// the program sees only the generated samples.
type workloadSpec struct {
	Name string
	Why  string
	// Mesh is the topology in the meshgen grammar, its seed included: the
	// run's seed varies what flows through the mesh, not the mesh.
	Mesh string
	// Fault names the faultlib template injected at InjectAt; "" leaves the
	// mesh healthy.
	Fault string
	// InjectAt is the virtual second the fault starts; history is fed up to
	// the violation that follows it (or to InjectAt+detectorGrace).
	InjectAt    int64
	Slaves      int
	Aggregators int
	Streaming   bool
	// Standby turns on warm-standby placement plus slave replication.
	Standby bool
	// FeedShare is the share of -seconds the steady feed gets; the cycles
	// get the rest.
	FeedShare float64
	// SliceSec is the virtual seconds of one equal-work throughput slice of
	// the steady feed, sized so a slice takes roughly 0.2 s.
	SliceSec int64
	// MinCycles is the floor on measured {fresh second, Localize} cycles, so
	// a slow machine still yields a percentile with enough samples beyond.
	MinCycles int
	// NoClamp turns the sanitizer's magnitude clamp off (Config.ClampSigma).
	// A component that changes owner gets a fresh sanitizer: the clamp's
	// running mean and deviation are not part of the state a promotion or
	// handoff moves, so a stream the old owner clamped reaches the new
	// owner's model unclamped and the verdict departs from a reference that
	// never moved. Until state movement carries them (ROADMAP item 3), the
	// churn workload runs both sides without the clamp.
	NoClamp bool
	// ReplInterval is the slaves' replication tick (standby workloads).
	ReplInterval time.Duration
	// DepCaptureSec is the length of the packet capture dependency discovery
	// reads. Discovery wants ~10 inbound flows per component, and a mesh's
	// widest layer needs the 2400 s the accuracy matrix uses.
	DepCaptureSec int
	// Toy marks the tests' scale: every path runs, too few samples for the
	// numbers (or a p90) to mean anything.
	Toy bool
	// ChurnRounds is the number of kill/replace rounds the cycles are spread
	// over (failover-churn only).
	ChurnRounds int
}

const (
	// detectorGrace is how long after injection the simulated SLO detector
	// may take before the benchmark localizes anyway.
	detectorGrace = 60
	// maxCycles bounds how many fresh seconds are simulated past tv.
	maxCycles = 600
)

// workloads returns the four workloads at benchmark scale, or at the tiny
// scale the tests use when smoke is set.
func workloads(smoke bool) []workloadSpec {
	ws := []workloadSpec{
		{
			Name: "steady-ingest",
			Why:  "healthy mesh, batch kernel, 2 slaves: the longest closed-loop Ingest replay, so the data plane (sanitize, ring, markov, monitor) does most of the work and every Localize must find nothing",
			Mesh: "n=128,fanout=4,depth=5,seed=21", Slaves: 2,
			FeedShare: 0.4, SliceSec: 600, MinCycles: 100,
		},
		{
			Name: "violation-storm",
			Why:  "gray-disk fault, batch kernel, 2 slaves: every Localize follows a fresh second, so no memo can answer and per-stream selection is almost all of the call",
			Mesh: "n=128,fanout=3,depth=6,cycle=0.05,seed=22", Fault: "gray-disk", Slaves: 2,
			FeedShare: 0.25, SliceSec: 600, MinCycles: 100,
		},
		{
			Name: "wide-fleet",
			Why:  "gray-disk fault, streaming kernel, 4 slaves behind 2 aggregators: selection is paid at Observe, so Localize is assemble, encode, wire, aggregator merge and diagnose",
			Mesh: "n=240,fanout=4,depth=6,seed=23", Fault: "gray-disk", Slaves: 4, Aggregators: 2, Streaming: true,
			FeedShare: 0.25, SliceSec: 60, MinCycles: 100,
		},
		{
			Name: "failover-churn",
			Why:  "gray-disk fault, 4 slaves with warm standbys: Ingest races replication reads of the same monitors, and slaves are killed, promoted over and replaced between Localize calls",
			Mesh: "n=32,fanout=3,depth=4,seed=24", Fault: "gray-disk", Slaves: 4, Standby: true, NoClamp: true,
			FeedShare: 0.25, SliceSec: 1500, MinCycles: 104, ChurnRounds: 8,
		},
	}
	for i := range ws {
		// The fault lands after one full 1800 s diurnal period, as in the
		// accuracy matrix: context calibration needs a whole cycle of history
		// before periodic drift reads as "seen before".
		ws[i].InjectAt = 2000
		ws[i].ReplInterval = 100 * time.Millisecond
		ws[i].DepCaptureSec = 2400
	}
	if smoke {
		for i := range ws {
			ws[i].Toy = true
			ws[i].Mesh = "n=12,fanout=2,depth=3,seed=25"
			ws[i].InjectAt = 300
			ws[i].ReplInterval = 20 * time.Millisecond
			ws[i].DepCaptureSec = 300
			ws[i].SliceSec = 100
			ws[i].MinCycles = 12
			if ws[i].ChurnRounds > 0 {
				ws[i].ChurnRounds = 2
			}
		}
	}
	return ws
}

// metricDef names one reported metric. The lists below are the single
// source the runner emits from; BENCHMARK.json repeats them for the driver
// and a test keeps the two in step.
type metricDef struct {
	Name string
	Unit string
	// Better and Bound apply to end-to-end metrics only: the direction that
	// counts as an improvement, and the share of the baseline median by which
	// the metric may worsen before a change counts as a regression.
	Better string
	Bound  float64
}

var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_samples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "localize_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_bytes_per_component", Unit: "bytes", Better: "lower", Bound: 0.05},
}

var perLayerMetrics = []metricDef{
	// the untraced pass's Localize tail and sample count
	{Name: "localize_p90_ms", Unit: "ms"},
	{Name: "bench.localize_samples", Unit: "count"},
	// traced end-to-end pass
	{Name: "trace.ingest_samples_per_s", Unit: "1/s"},
	{Name: "trace.localize_p50_ms", Unit: "ms"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio"},
	{Name: "bench.self_time_cover_ratio", Unit: "ratio"},
	{Name: "bench.slice_iqr_ratio", Unit: "ratio"},
	{Name: "bench.history_samples_per_s", Unit: "1/s"},
	{Name: "bench.calib_ms", Unit: "ms"},
	{Name: "bench.heap_start_bytes", Unit: "bytes"},
	{Name: "bench.goroutines_leaked", Unit: "count"},
	{Name: "oracle.verdict_mismatch_ratio", Unit: "ratio"},
	{Name: "oracle.op_error_ratio", Unit: "ratio"},
	{Name: "oracle.truth_in_first_verdict", Unit: "ratio"},
	// set-up
	{Name: "depgraph.discover_ms", Unit: "ms"},
	{Name: "cluster.placement_ms", Unit: "ms"},
	// data plane, batch
	{Name: "ingest.sanitize_ns_per_sample", Unit: "ns"},
	{Name: "ingest.dirty_ns_per_sample", Unit: "ns"},
	{Name: "ingest.dropped_ratio", Unit: "ratio"},
	{Name: "timeseries.ring_push_ns", Unit: "ns"},
	{Name: "markov.observe_ns", Unit: "ns"},
	{Name: "core.observe_ns_per_sample", Unit: "ns"},
	// data plane, streaming
	{Name: "core.stream_observe_ns_per_sample", Unit: "ns"},
	{Name: "core.stream_bytes_per_component", Unit: "bytes"},
	// selection, batch
	{Name: "core.select_us_per_stream", Unit: "us"},
	{Name: "core.select_pool_us_per_stream", Unit: "us"},
	{Name: "core.select_abnormal_ratio", Unit: "ratio"},
	{Name: "timeseries.series_into_ns_per_window", Unit: "ns"},
	{Name: "changepoint.detect_us_per_window", Unit: "us"},
	{Name: "fftpkg.burst_us_per_window", Unit: "us"},
	// selection, streaming
	{Name: "core.stream_select_us_per_stream", Unit: "us"},
	{Name: "core.stream_cold_ratio", Unit: "ratio"},
	{Name: "core.stream_memo_hits", Unit: "count"},
	// the other kernel at equal topology (ROADMAP item 2)
	{Name: "alt.ingest_samples_per_s", Unit: "1/s"},
	{Name: "alt.localize_p50_ms", Unit: "ms"},
	// cluster wire path
	{Name: "cluster.ask_p50_ms", Unit: "ms"},
	{Name: "cluster.ask_spread_ms", Unit: "ms"},
	{Name: "cluster.master_self_ms", Unit: "ms"},
	{Name: "cluster.wire_bytes_per_localize", Unit: "bytes"},
	{Name: "cluster.wire_bytes_per_component", Unit: "bytes"},
	{Name: "core.diagnose_us", Unit: "us"},
	// state movement
	{Name: "core.delta_ns_per_sample", Unit: "ns"},
	{Name: "core.snapshot_us_per_component", Unit: "us"},
	{Name: "core.restore_us_per_component", Unit: "us"},
	{Name: "cluster.repl_wire_bytes_per_sample", Unit: "bytes"},
	{Name: "cluster.repl_catchup_ms", Unit: "ms"},
	{Name: "cluster.history_catchup_ms", Unit: "ms"},
	{Name: "cluster.steady_catchup_ms", Unit: "ms"},
	{Name: "cluster.promote_ms", Unit: "ms"},
	{Name: "cluster.promote_us_per_component", Unit: "us"},
	{Name: "cluster.rejoin_ms", Unit: "ms"},
	{Name: "cluster.failover_localize_ms", Unit: "ms"},
}
