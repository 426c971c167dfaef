package fchain_test

// One benchmark per table and figure of the FChain paper's evaluation
// (§III): each regenerates the corresponding experiment on the simulated
// testbed via the public scenario API. Run them with
//
//	go test -bench=. -benchmem
//
// The per-op time of a BenchmarkFig*/BenchmarkTable* is the cost of
// regenerating that artifact (bench runs use a reduced run count per fault;
// use cmd/fchain-bench -runs 30 for paper-scale campaigns). The
// BenchmarkModule* group mirrors Table II's per-module overhead
// measurements on the real pipeline primitives; with
// BenchmarkModuleSelectionNoisy in internal/core they are the whole set:
//
//	go test -run '^$' -bench '^BenchmarkModule' -benchmem . ./internal/core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fchain"
	"fchain/internal/timeseries"
	"fchain/scenario"
)

// benchRuns is the fault-injection runs per fault inside benchmark bodies —
// enough to exercise every code path while keeping -bench runs minutes, not
// hours.
const benchRuns = 2

func benchScenario(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := scenario.Run(id, benchRuns)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFig2PropagationSystemS regenerates Fig. 2: the abnormal change
// propagation walk-through (PE3 → PE6 → PE2) in System S.
func BenchmarkFig2PropagationSystemS(b *testing.B) { benchScenario(b, scenario.Figure2) }

// BenchmarkFig3ChangePointSelection regenerates Fig. 3: raw CUSUM change
// points versus FChain's abnormal change point selection on Hadoop.
func BenchmarkFig3ChangePointSelection(b *testing.B) { benchScenario(b, scenario.Figure3) }

// BenchmarkFig4ExpectedPredictionError regenerates Fig. 4: the
// burstiness-adaptive expected prediction error tracking a CPU series.
func BenchmarkFig4ExpectedPredictionError(b *testing.B) { benchScenario(b, scenario.Figure4) }

// BenchmarkFig5RUBiSPinpointing regenerates Fig. 5: the RUBiS pinpointing
// walk-through with dependency-based spurious-propagation filtering.
func BenchmarkFig5RUBiSPinpointing(b *testing.B) { benchScenario(b, scenario.Figure5) }

// BenchmarkFig6RUBiSSingle regenerates Fig. 6: single-component fault
// accuracy on RUBiS across all schemes.
func BenchmarkFig6RUBiSSingle(b *testing.B) { benchScenario(b, scenario.Figure6) }

// BenchmarkFig7SystemSSingle regenerates Fig. 7: single-component fault
// accuracy on System S (dependency discovery unavailable).
func BenchmarkFig7SystemSSingle(b *testing.B) { benchScenario(b, scenario.Figure7) }

// BenchmarkFig8RUBiSMulti regenerates Fig. 8: multi-component fault
// accuracy on RUBiS (OffloadBug, LBBug).
func BenchmarkFig8RUBiSMulti(b *testing.B) { benchScenario(b, scenario.Figure8) }

// BenchmarkFig9SystemSMulti regenerates Fig. 9: multi-component concurrent
// fault accuracy on System S.
func BenchmarkFig9SystemSMulti(b *testing.B) { benchScenario(b, scenario.Figure9) }

// BenchmarkFig10HadoopMulti regenerates Fig. 10: multi-component concurrent
// fault accuracy on Hadoop.
func BenchmarkFig10HadoopMulti(b *testing.B) { benchScenario(b, scenario.Figure10) }

// BenchmarkFig11OnlineValidation regenerates Fig. 11: online pinpointing
// validation on the two hardest System S faults.
func BenchmarkFig11OnlineValidation(b *testing.B) { benchScenario(b, scenario.Figure11) }

// BenchmarkFig12FixedFiltering regenerates Fig. 12: the Fixed-Filtering
// threshold sweep against adaptive FChain.
func BenchmarkFig12FixedFiltering(b *testing.B) { benchScenario(b, scenario.Figure12) }

// BenchmarkTable1Sensitivity regenerates Table I: sensitivity to the
// look-back window and concurrency threshold.
func BenchmarkTable1Sensitivity(b *testing.B) { benchScenario(b, scenario.TableI) }

// BenchmarkTable2Overhead regenerates Table II's per-module cost report.
func BenchmarkTable2Overhead(b *testing.B) { benchScenario(b, scenario.TableII) }

// --- Table II per-module micro-benchmarks on the real pipeline ---

// BenchmarkModuleMonitoring measures feeding one 6-metric sample vector
// into a component's online models (Table II: "VM monitoring, 6
// attributes").
func BenchmarkModuleMonitoring(b *testing.B) {
	loc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"c"})
	kinds := fchain.Kinds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int64(i)
		for _, k := range kinds {
			if err := loc.Observe("c", t, k, float64(50+i%17)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkModuleModeling1000 measures normal fluctuation modeling over
// 1000 samples (Table II: "normal fluctuation modeling, 1000 samples").
func BenchmarkModuleModeling1000(b *testing.B) {
	kinds := fchain.Kinds()
	for i := 0; i < b.N; i++ {
		loc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"c"})
		for t := int64(0); t < 1000; t++ {
			for _, k := range kinds {
				if err := loc.Observe("c", t, k, float64(40+t%23)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkModuleSelection measures abnormal change point selection over a
// 100-second look-back window (Table II: "abnormal change point selection,
// 100 samples") on a noise-free periodic signal: change point detection
// finds nothing, so the kernel stops after smoothing and CUSUM. It is the
// floor of a Localize on a quiet component; BenchmarkModuleSelectionNoisy
// in internal/core is the cost when there is something to judge.
func BenchmarkModuleSelection(b *testing.B) {
	loc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"c"})
	kinds := fchain.Kinds()
	for t := int64(0); t < 2000; t++ {
		for _, k := range kinds {
			if err := loc.Observe("c", t, k, float64(40+t%23)+float64(t%7)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Steady state: a long-running daemon reuses the report buffer.
	var reports []fchain.ComponentReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports = loc.AnalyzeInto(reports, 1999)
	}
}

// BenchmarkModuleSelectionStreaming measures selection in the streaming
// engine's operating mode: one fresh second observed, then a full analysis
// at the new stream head, so every iteration pays the honest incremental
// cost (the memoized verdict never answers at an advancing head). Compare
// with BenchmarkModuleSelection for what the per-violation burst costs when
// the whole look-back context must be processed at tv-time.
func BenchmarkModuleSelectionStreaming(b *testing.B) {
	cfg := fchain.DefaultConfig()
	cfg.Streaming = true
	loc := fchain.NewLocalizer(cfg, []string{"c"})
	kinds := fchain.Kinds()
	for t := int64(0); t < 2000; t++ {
		for _, k := range kinds {
			if err := loc.Observe("c", t, k, float64(40+t%23)+float64(t%7)); err != nil {
				b.Fatal(err)
			}
		}
	}
	var reports []fchain.ComponentReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(2000 + i)
		for _, k := range kinds {
			if err := loc.Observe("c", ts, k, float64(40+ts%23)+float64(ts%7)); err != nil {
				b.Fatal(err)
			}
		}
		reports = loc.AnalyzeInto(reports, ts)
	}
}

// BenchmarkModuleDiagnosis measures the integrated fault diagnosis over a
// seven-component report set (Table II: "integrated fault diagnosis").
func BenchmarkModuleDiagnosis(b *testing.B) {
	reports := make([]fchain.ComponentReport, 7)
	for i := range reports {
		reports[i] = fchain.ComponentReport{Component: string(rune('a' + i))}
	}
	reports[2].Changes = []fchain.AbnormalChange{{
		Component: "c", Metric: fchain.CPU, ChangeAt: 95, Onset: 90,
		PredErr: 10, Expected: 1, Magnitude: 12,
	}}
	reports[2].Onset = 90
	deps := fchain.NewDependencyGraph()
	deps.AddEdge("a", "b", 1)
	deps.AddEdge("b", "c", 1)
	cfg := fchain.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fchain.Diagnose(reports, len(reports), deps, cfg)
	}
}

// BenchmarkModuleValidation measures online pinpointing validation of one
// culprit against a cloned simulation (Table II: "online validation,
// per component" — dominated by the 30 simulated seconds of observation).
func BenchmarkModuleValidation(b *testing.B) {
	sys, err := scenario.RUBiS(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Inject(scenario.NewCPUHog(1500, 1.7, "db")); err != nil {
		b.Fatal(err)
	}
	sys.RunUntil(1600)
	diag := fchain.Diagnosis{Culprits: []fchain.Culprit{{
		Component: "db", Metrics: []fchain.Kind{fchain.CPU},
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fchain.Validate(func() (fchain.Adjuster, error) {
			return sys.Clone(), nil
		}, diag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModuleWindowView measures the zero-copy window extraction the
// per-violation analysis hot path runs per metric (WindowView + ValuesView
// over a materialized ring). It allocates nothing; run with -benchmem and
// compare against BenchmarkModuleWindowCopy to see what the view variants
// buy.
func BenchmarkModuleWindowView(b *testing.B) {
	s := timeseries.FromFunc(0, 2000, func(i int) float64 { return float64(40 + i%23) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := s.WindowView(1880, 2000)
		if len(w.ValuesView()) != 120 {
			b.Fatal("bad window")
		}
	}
}

// BenchmarkModuleWindowCopy is the copying baseline for
// BenchmarkModuleWindowView: the pre-view Window path, which clones the
// samples on every call.
func BenchmarkModuleWindowCopy(b *testing.B) {
	s := timeseries.FromFunc(0, 2000, func(i int) float64 { return float64(40 + i%23) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := s.Window(1880, 2000)
		if len(w.Values()) != 120 {
			b.Fatal("bad window")
		}
	}
}

// BenchmarkModuleSeriesInto measures materializing a full ring into a
// reused scratch series — the once-per-metric cost that lets every window
// afterwards be a view. Steady state allocates nothing.
func BenchmarkModuleSeriesInto(b *testing.B) {
	r := timeseries.NewRing(1024)
	for t := int64(0); t < 4096; t++ {
		r.Push(t, float64(t%97))
	}
	scratch := &timeseries.Series{}
	r.SeriesInto(scratch) // warm the scratch capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.SeriesInto(scratch).Len() != 1024 {
			b.Fatal("bad materialization")
		}
	}
}

// BenchmarkIngestTimeMajor measures the collection path the way a slave
// daemon runs it: each virtual second, one sample for every metric of 128
// components through Slave.Ingest, with every ring full and every model
// warm. Walking 768 streams per second is what the per-stream layer
// benchmarks (BenchmarkModuleMonitoring replays one component with its
// state in L1) do not see. An op is one virtual second; ns/sample is the
// number to compare. The batch and streaming sub-benchmarks run it with
// Config.Streaming off and on; batch allocates nothing at steady state,
// while the streaming accumulators' deques re-grow now and then.
func BenchmarkIngestTimeMajor(b *testing.B) {
	for _, mode := range []struct {
		name      string
		streaming bool
	}{{"batch", false}, {"streaming", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := fchain.DefaultConfig()
			cfg.Streaming = mode.streaming
			benchIngestTimeMajor(b, cfg)
		})
	}
}

func benchIngestTimeMajor(b *testing.B, cfg fchain.Config) {
	const components = 128
	names := make([]string, components)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d", i)
	}
	slave := fchain.NewSlave("bench", names, cfg)
	defer slave.Close()
	kinds := fchain.Kinds()
	// A periodic workload plus seeded noise per stream, precomputed so the
	// loop times Ingest, not the signal.
	const period = 60
	rng := rand.New(rand.NewSource(1))
	signal := make([][period]float64, components*len(kinds))
	for i := range signal {
		level, amp := 20+60*rng.Float64(), 2+8*rng.Float64()
		for t := range signal[i] {
			signal[i][t] = level + amp*math.Sin(2*math.Pi*float64(t)/period) + rng.NormFloat64()
		}
	}
	second := func(t int64) {
		for c, name := range names {
			for ki, k := range kinds {
				if err := slave.Ingest(name, t, k, signal[c*len(kinds)+ki][t%period]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	warm := int64(cfg.RingCapacity) + period
	for t := int64(0); t < warm; t++ {
		second(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		second(warm + int64(i))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*components*len(kinds)), "ns/sample")
}

// BenchmarkSimulationSecond measures one simulated second of the RUBiS
// testbed (contextualizes the cost of campaign generation).
func BenchmarkSimulationSecond(b *testing.B) {
	sys, err := scenario.RUBiS(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(1)
	}
}

// BenchmarkAblation regenerates the design-choice ablation study (an
// extension beyond the paper's figures).
func BenchmarkAblation(b *testing.B) { benchScenario(b, scenario.Ablation) }
