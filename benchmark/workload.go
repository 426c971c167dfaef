package main

import (
	"fmt"
	"path/filepath"

	"fchain/internal/core"
	"fchain/internal/depgraph"
)

// shortPass sizes the passes of a traced run: enough cycles and slices for a
// median, short enough that three passes plus the layer timings fit the run.
const (
	shortCycles       = 30
	shortSteadySlices = 5
	shortChurnRounds  = 2
	setupRepetitions  = 5
	oracleChecks      = 8
	steadySlices      = 12
)

// measurement is one workload run's outcome in the shape every output
// (driver line, table, result file) is rendered from.
type measurement struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples holds quartiles and counts for the metrics that are medians of
	// many observations.
	Samples map[string]quartiles `json:"samples,omitempty"`
	Inputs  struct {
		Components int    `json:"components"`
		Digest     string `json:"digest"`
		TV         int64  `json:"tv"`
		Detected   bool   `json:"slo_detector_fired"`
	} `json:"inputs"`
	Notes []string `json:"notes,omitempty"`
}

func (m *measurement) absorb(res *passResult) {
	m.Attempted += res.Attempted
	m.Failed += res.Failed
	m.Notes = append(m.Notes, res.Notes...)
	if res.Oracle.Mismatches > 0 || res.DroppedClean > 0 {
		m.Correct = false
	}
	m.Inputs.Components = res.Components
	m.Inputs.Digest = res.Digest
	m.Inputs.TV, m.Inputs.Detected = res.TV, res.Detected
}

// measureEndToEnd runs the untraced pass and reports every end-to-end metric.
func measureEndToEnd(spec workloadSpec, seed int64, seconds float64) (*measurement, error) {
	res, err := runPass(spec, passOpts{seed: seed, seconds: seconds, setupReps: setupRepetitions,
		minCycles: spec.MinCycles, minSteadySlices: steadySlices, oracleChecks: oracleChecks})
	if err != nil {
		return nil, err
	}
	m := &measurement{Workload: spec.Name, Correct: true, Metrics: map[string]float64{}, Samples: map[string]quartiles{}}
	m.absorb(res)
	lat := sortedCopy(res.LocalizeMS)
	m.Metrics["setup_s"] = median(res.SetupS)
	m.Metrics["ingest_samples_per_s"] = res.ingestRate()
	m.Metrics["localize_p50_ms"] = quantile(lat, 0.5)
	m.Metrics["heap_bytes_per_component"] = res.HeapPerComp
	m.Samples["setup_s"] = quartilesOf(res.SetupS)
	m.Samples["ingest_samples_per_s"] = quartilesOf(sliceRates(res.SamplesPerSlice, res.SliceSecs))
	m.Samples["localize_ms"] = quartilesOf(res.LocalizeMS)
	if p := highestPercentile(len(lat)); p > 0 {
		m.Notes = append(m.Notes, fmt.Sprintf("Localize p%d (the highest percentile with ten samples beyond it): %.4f ms", p, quantile(lat, float64(p)/100)))
	}
	if res.GoroutinesLeaked > 0 {
		m.Notes = append(m.Notes, fmt.Sprintf("%d goroutines outlived the cluster", res.GoroutinesLeaked))
	}
	m.Notes = append(m.Notes, fmt.Sprintf("oracle checked %d of %d verdicts, %d mismatches; truth in first verdict: %v",
		res.Oracle.Checked, len(res.LocalizeMS), res.Oracle.Mismatches, res.Oracle.TruthInFirst == 1))
	return m, nil
}

// measureLayers runs the traced run: a short untraced pass, the same pass
// with an obs.Sink on every daemon and the benchmark's spans recorded, the
// other selection kernel at equal topology where the roadmap asks for it, and
// the direct layer timings. It writes the span file and reports every
// per-layer metric (0 where a layer does not take part in the workload).
func measureLayers(spec workloadSpec, seed int64, outDir string) (*measurement, error) {
	m := &measurement{Workload: spec.Name, Traced: true, Correct: true, Metrics: map[string]float64{}, Samples: map[string]quartiles{}}
	for _, def := range perLayerMetrics {
		m.Metrics[def.Name] = 0
	}
	m.Metrics["bench.calib_ms"] = calibrate()
	in, err := generate(spec, seed)
	if err != nil {
		return nil, err
	}
	short := spec
	if short.ChurnRounds > 0 {
		short.ChurnRounds = shortChurnRounds
	}
	opts := passOpts{seed: seed, setupReps: 1, minCycles: shortCycles, minSteadySlices: shortSteadySlices,
		in: in, oracleChecks: 3}
	if spec.Toy {
		opts.minCycles = 2 * shortChurnRounds
	}

	// The untraced pass runs the full cycle count, so its p90 has ten samples
	// beyond it; the traced pass and the alternate kernel run the short one.
	bopts := opts
	if !spec.Toy {
		bopts.minCycles = spec.MinCycles
	}
	base, err := runPass(short, bopts)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	m.absorb(base)
	lat := sortedCopy(base.LocalizeMS)
	m.Metrics["localize_p90_ms"] = quantile(lat, 0.9)
	m.Metrics["bench.localize_samples"] = float64(len(lat))
	if !spec.Toy && !tailSupported(len(lat), 90) {
		m.Correct = false
		m.Notes = append(m.Notes, fmt.Sprintf("%d Localize samples do not support p90 (highest supported: p%d)",
			len(lat), highestPercentile(len(lat))))
	}
	rec := newRecorder()
	topts := opts
	topts.rec = rec
	traced, err := runPass(short, topts)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	m.absorb(traced)

	n := float64(base.Components)
	baseP50, tracedP50 := median(base.LocalizeMS), median(traced.LocalizeMS)
	m.Metrics["bench.heap_start_bytes"] = float64(base.HeapStart)
	m.Metrics["bench.goroutines_leaked"] = float64(base.GoroutinesLeaked + traced.GoroutinesLeaked)
	m.Metrics["bench.slice_iqr_ratio"] = quartilesOf(sliceRates(base.SamplesPerSlice, base.SliceSecs)).iqrRatio()
	m.Metrics["trace.ingest_samples_per_s"] = traced.ingestRate()
	m.Metrics["trace.localize_p50_ms"] = tracedP50
	if baseP50 > 0 {
		m.Metrics["obs.trace_overhead_ratio"] = tracedP50 / baseP50
	}
	checked := float64(base.Oracle.Checked + traced.Oracle.Checked)
	if checked > 0 {
		m.Metrics["oracle.verdict_mismatch_ratio"] = float64(base.Oracle.Mismatches+traced.Oracle.Mismatches) / checked
	}
	m.Metrics["oracle.truth_in_first_verdict"] = base.Oracle.TruthInFirst
	m.Metrics["depgraph.discover_ms"] = base.DiscoverMS
	m.Metrics["cluster.placement_ms"] = base.PlacementMS
	m.Metrics["cluster.ask_p50_ms"] = median(base.AskMeanMS)
	m.Metrics["cluster.ask_spread_ms"] = median(base.AskSpreadMS)
	m.Metrics["cluster.master_self_ms"] = median(base.MasterSelfMS)
	m.Metrics["cluster.wire_bytes_per_localize"] = base.WirePerLocalize
	m.Metrics["cluster.wire_bytes_per_component"] = base.WirePerLocalize / n
	m.Metrics["cluster.repl_wire_bytes_per_sample"] = base.ReplBytesPerSample
	m.Metrics["cluster.repl_catchup_ms"] = median(base.ReplCatchupMS)
	m.Metrics["cluster.history_catchup_ms"] = base.CatchupS * 1e3
	m.Metrics["cluster.steady_catchup_ms"] = base.SteadyCatchupS * 1e3
	if base.HistoryS > 0 {
		m.Metrics["bench.history_samples_per_s"] = float64(base.HistorySamples) / base.HistoryS
	}
	m.Metrics["cluster.promote_ms"] = median(base.PromoteMS)
	m.Metrics["cluster.rejoin_ms"] = median(base.RejoinMS)
	m.Metrics["cluster.failover_localize_ms"] = median(base.FailoverLocalizeMS)
	if lost := median(base.PromotedComps); lost > 0 {
		m.Metrics["cluster.promote_us_per_component"] = median(base.PromoteMS) * 1e3 / lost
	}
	m.Samples["localize_ms"] = quartilesOf(base.LocalizeMS)
	m.Samples["trace.localize_ms"] = quartilesOf(traced.LocalizeMS)

	// ROADMAP item 2 wants both kernels side by side at equal topology on
	// the two batch workloads whose cycles are cheap enough to repeat.
	if !spec.Standby && spec.Aggregators == 0 {
		alt := short
		alt.Streaming = !spec.Streaming
		ar, err := runPass(alt, opts)
		if err != nil {
			return nil, fmt.Errorf("alternate-kernel pass: %w", err)
		}
		m.absorb(ar)
		m.Metrics["alt.ingest_samples_per_s"] = ar.ingestRate()
		m.Metrics["alt.localize_p50_ms"] = median(ar.LocalizeMS)
	}

	cfg := spec.config()
	deps := depgraph.Discover(in.packets, depgraph.DiscoverConfig{})
	for name, v := range layerTimings(in, cfg, deps, traced.reports, seed, rec) {
		m.Metrics[name] = v
	}
	if spec.Streaming && traced.StreamTasks > 0 {
		// The cluster's own counters, where the workload runs this kernel.
		m.Metrics["core.stream_cold_ratio"] = float64(traced.StreamColds) / float64(traced.StreamTasks)
		m.Metrics["core.stream_bytes_per_component"] = traced.StreamBytes / n
	}

	spans := rec.finish()
	cover := attributedShare(spans, "bench.localize")
	if c := attributedShare(spans, "bench.feed.slice"); c < cover {
		cover = c
	}
	m.Metrics["bench.self_time_cover_ratio"] = cover
	// At toy scale a slice lasts a millisecond and starting the feeders is a
	// visible share of it; the gate only means something at full scale.
	if !spec.Toy && (cover < 0.9 || cover > 1.1) {
		m.Correct = false
		m.Notes = append(m.Notes, fmt.Sprintf("spans beneath bench.localize/bench.feed.slice account for %.3f of them, want 0.9..1.1", cover))
	}
	if m.Attempted > 0 {
		m.Metrics["oracle.op_error_ratio"] = float64(m.Failed) / float64(m.Attempted)
	}
	path := filepath.Join(outDir, "trace-"+spec.Name+".jsonl")
	if err := writeSpans(path, spec.Name, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	m.Notes = append(m.Notes, fmt.Sprintf("%d spans in %s", len(spans), path))
	return m, nil
}

// gatherReports asks every slave for its reports at tv through the public
// in-process accessor, so core.Diagnose can be timed on the full set.
func (f *fleet) gatherReports(tv int64) []core.ComponentReport {
	var out []core.ComponentReport
	for _, name := range f.slaveNames() {
		out = append(out, f.slaves[name].Analyze(tv)...)
	}
	return out
}
