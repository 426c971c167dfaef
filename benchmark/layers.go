package main

import (
	"time"

	"fchain/internal/changepoint"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/ingest"
	"fchain/internal/markov"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

const (
	// layerComps bounds how many of the workload's components the direct
	// layer timings replay: enough streams for a stable mean, few enough to
	// keep the traced run inside its budget.
	layerComps = 32
	// layerCycles is how many {fresh second, analyze} rounds time selection.
	layerCycles = 9
)

// layerTimings calls each layer's public functions directly on the workload's
// own samples (and core.Diagnose on the reports gathered from the cluster) and
// returns one value per per-layer metric it can measure. Each call is also a
// span (layer:<metric>) in rec.
func layerTimings(in *inputs, cfg core.Config, deps *depgraph.Graph, gathered []core.ComponentReport, seed int64, rec *recorder) map[string]float64 {
	out := make(map[string]float64)
	comps := in.comps
	if len(comps) > layerComps {
		// Evenly spaced, so every mesh layer is represented.
		picked := make([]string, layerComps)
		for i := range picked {
			picked[i] = comps[i*len(comps)/layerComps]
		}
		comps = picked
	}
	root := rec.start(-1, -1, "bench.layers")
	defer rec.end(root)
	timed := func(name string, fn func()) time.Duration {
		sp := rec.start(root, -1, "layer:"+name)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		rec.end(sp)
		return d
	}
	nsPer := func(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// The streams, as (t, v) sequences up to the violation.
	type stream struct {
		comp string
		k    metric.Kind
		ki   int
	}
	var streams []stream
	for _, comp := range comps {
		for ki, k := range metric.Kinds {
			streams = append(streams, stream{comp, k, ki})
		}
	}
	history := in.tv - in.first + 1
	total := int64(len(streams)) * history
	at := func(s stream, t int64) float64 { return in.value(in.cols[s.comp], s.ki, t) }

	// ingest: Sanitizer.Push on the clean trace, then on a seeded corrupt copy.
	out["ingest.sanitize_ns_per_sample"] = nsPer(timed("ingest.sanitize_ns_per_sample", func() {
		for _, s := range streams {
			sz := ingest.NewSanitizer(ingest.Config{})
			for t := in.first; t <= in.tv; t++ {
				sz.Push(t, at(s, t))
			}
		}
	}), total)
	dirty := make([][]ingest.Sample, len(streams))
	var dirtyN int64
	for i, s := range streams {
		clean := make([]ingest.Sample, 0, history)
		for t := in.first; t <= in.tv; t++ {
			clean = append(clean, ingest.Sample{T: t, V: at(s, t)})
		}
		dirty[i] = ingest.Corrupt(clean, ingest.CorruptConfig{Seed: seed + int64(i),
			DropRate: 0.01, DupRate: 0.01, NaNRate: 0.005, SpikeRate: 0.002, JitterMax: 3})
		dirtyN += int64(len(dirty[i]))
	}
	var dropped uint64
	out["ingest.dirty_ns_per_sample"] = nsPer(timed("ingest.dirty_ns_per_sample", func() {
		for i := range streams {
			sz := ingest.NewSanitizer(ingest.Config{})
			for _, smp := range dirty[i] {
				sz.Push(smp.T, smp.V)
			}
			sz.Flush(in.tv)
			dropped += sz.Stats().Dropped()
		}
	}), dirtyN)
	out["ingest.dropped_ratio"] = float64(dropped) / float64(dirtyN)

	// timeseries and markov: the two stores every accepted sample lands in.
	rings := make([]*timeseries.Ring, len(streams))
	out["timeseries.ring_push_ns"] = nsPer(timed("timeseries.ring_push_ns", func() {
		for i, s := range streams {
			rings[i] = timeseries.NewRing(cfg.RingCapacity)
			for t := in.first; t <= in.tv; t++ {
				rings[i].Push(t, at(s, t))
			}
		}
	}), total)
	var dst timeseries.Series
	out["timeseries.series_into_ns_per_window"] = nsPer(timed("timeseries.series_into_ns_per_window", func() {
		for _, r := range rings {
			r.SeriesInto(&dst)
		}
	}), int64(len(rings)))
	out["markov.observe_ns"] = nsPer(timed("markov.observe_ns", func() {
		for _, s := range streams {
			p := markov.New(cfg.MarkovBins, cfg.MarkovDecay)
			for t := in.first; t <= in.tv; t++ {
				p.Observe(at(s, t))
			}
		}
	}), total)

	// changepoint and fftpkg on the look-back windows selection would read.
	span := int64(cfg.LookBack + cfg.BurstWindow)
	windows := make([][]float64, len(streams))
	for i, s := range streams {
		w := make([]float64, 0, span)
		for t := in.tv - span + 1; t <= in.tv; t++ {
			w = append(w, at(s, t))
		}
		windows[i] = timeseries.Smooth(w, cfg.SmoothWindow)
	}
	var sc changepoint.Scratch
	out["changepoint.detect_us_per_window"] = nsPer(timed("changepoint.detect_us_per_window", func() {
		for _, w := range windows {
			sc.Detect(w, changepoint.Config{Thresholds: cfg.Bootstraps, Confidence: cfg.CPConfidence})
		}
	}), int64(len(windows))) / 1e3
	out["fftpkg.burst_us_per_window"] = nsPer(timed("fftpkg.burst_us_per_window", func() {
		for _, w := range windows {
			_, _ = core.ExpectedErrorForWindow(w[len(w)-2*cfg.BurstWindow:], cfg)
		}
	}), int64(len(windows))) / 1e3

	// core.Monitor, batch then streaming: Observe over the history, then
	// rounds of {one fresh second, AnalyzeMonitors at the new head}.
	for _, streaming := range []bool{false, true} {
		mcfg := cfg
		mcfg.Streaming = streaming
		obsName, selName := "core.observe_ns_per_sample", "core.select_us_per_stream"
		if streaming {
			obsName, selName = "core.stream_observe_ns_per_sample", "core.stream_select_us_per_stream"
		}
		monitors := make([]*core.Monitor, len(comps))
		out[obsName] = nsPer(timed(obsName, func() {
			for i, comp := range comps {
				monitors[i] = core.NewMonitor(comp, mcfg)
				cols := in.cols[comp]
				for t := in.first; t <= in.tv; t++ {
					for ki, k := range metric.Kinds {
						_ = monitors[i].Observe(t, k, in.value(cols, ki, t))
					}
				}
			}
		}), total)
		var before core.StreamingStats
		for _, m := range monitors {
			before.Merge(m.StreamingStats())
		}
		var wall, pool []float64
		var abnormal, tasks int
		var reports []core.ComponentReport
		for c := int64(1); c <= layerCycles; c++ {
			t := in.tv + c
			for i, comp := range comps {
				for ki, k := range metric.Kinds {
					_ = monitors[i].Observe(t, k, in.value(in.cols[comp], ki, t))
				}
			}
			var stats core.PoolStats
			d := timed(selName, func() { reports, stats = core.AnalyzeMonitors(monitors, t, 0, 1) })
			wall = append(wall, nsPer(d, int64(stats.Tasks))/1e3)
			if stats.Select.Count > 0 {
				pool = append(pool, float64(stats.Select.SumNS)/float64(stats.Select.Count)/1e3)
			}
			tasks += stats.Tasks
			for _, r := range reports {
				abnormal += len(r.Changes)
			}
		}
		out[selName] = median(wall)
		if !streaming {
			out["core.select_pool_us_per_stream"] = median(pool)
			out["core.select_abnormal_ratio"] = float64(abnormal) / float64(tasks)

			// State movement on the batch monitors: snapshot/restore, then
			// the replication delta for one fresh second.
			snaps := make([]*core.MonitorSnapshot, len(monitors))
			out["core.snapshot_us_per_component"] = nsPer(timed("core.snapshot_us_per_component", func() {
				for i, m := range monitors {
					snaps[i] = m.Snapshot()
				}
			}), int64(len(monitors))) / 1e3
			shadows := make([]*core.Monitor, len(monitors))
			out["core.restore_us_per_component"] = nsPer(timed("core.restore_us_per_component", func() {
				for i, comp := range comps {
					shadows[i] = core.NewMonitor(comp, mcfg)
					_ = shadows[i].Restore(snaps[i])
				}
			}), int64(len(monitors))) / 1e3
			t := in.tv + layerCycles + 1
			for i, comp := range comps {
				for ki, k := range metric.Kinds {
					_ = monitors[i].Observe(t, k, in.value(in.cols[comp], ki, t))
				}
			}
			var delta core.ReplDelta
			replayed := 0
			out["core.delta_ns_per_sample"] = nsPer(timed("core.delta_ns_per_sample", func() {
				for i, m := range monitors {
					if changed, ok := m.DeltaInto(&delta, snaps[i].LastT); ok && changed {
						if shadows[i].ApplyDelta(&delta) == nil {
							replayed += metric.NumKinds
						}
					}
				}
			}), int64(len(monitors)*metric.NumKinds))
			if replayed != len(monitors)*metric.NumKinds {
				out["core.delta_ns_per_sample"] = 0 // the incremental path refused; do not report a full-snapshot time under this name
			}
		} else {
			var after core.StreamingStats
			for _, m := range monitors {
				after.Merge(m.StreamingStats())
			}
			out["core.stream_bytes_per_component"] = float64(after.Bytes) / float64(len(monitors))
			out["core.stream_cold_ratio"] = float64(after.Colds-before.Colds) / float64(tasks)
			out["core.stream_memo_hits"] = float64(after.MemoHits - before.MemoHits)
		}
	}

	// core.Diagnose on the reports the traced cluster's slaves gathered.
	var ds []float64
	for i := 0; i < 20; i++ {
		d := timed("core.diagnose_us", func() { core.Diagnose(gathered, len(in.comps), deps, cfg) })
		ds = append(ds, float64(d.Nanoseconds())/1e3)
	}
	out["core.diagnose_us"] = median(ds)
	return out
}
