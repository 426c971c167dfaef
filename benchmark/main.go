// Command benchmark is the repository's end-to-end benchmark: it builds a real
// in-process FChain cluster (master, slaves, optional aggregators and warm
// standbys) over loopback TCP, feeds it inputs generated from a seed, and
// reports end-to-end metrics, a per-layer budget timed from outside the
// program, and whether the verdicts match an in-process reference.
//
//	go run . -workload violation-storm -seed 1 -seconds 15 -trace 0   one run, one JSON line (the driver's contract)
//	go run . -seed 1                                                  all four workloads, both passes, tables + out/result.json
//	go run . -repeat 6                                                the suite six times; fails if a metric's median moves past its bound between the halves
//	go run . -smoke                                                   the suite at toy scale (what the tests run)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fchain/internal/obs"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's JSON line (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 15, "measured-phase budget per run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, no sink attached; 1 = per-layer metrics from the traced run")
		repeat   = flag.Int("repeat", 1, "run the suite this many times, alternating workload order, and compare the runs")
		smoke    = flag.Bool("smoke", false, "toy-scale workloads: exercises every path in seconds, numbers mean nothing")
		outDir   = flag.String("out", "out", "directory for result.json, repeat.json and trace-<workload>.jsonl")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload != "" {
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1, *smoke, *outDir))
	}
	os.Exit(runSuite(*seed, *seconds, *repeat, *smoke, *outDir))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func findWorkload(name string, smoke bool) (workloadSpec, bool) {
	for _, w := range workloads(smoke) {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// measure runs one workload in one mode.
func measure(spec workloadSpec, seed int64, seconds float64, traced bool, outDir string) (*measurement, error) {
	if traced {
		return measureLayers(spec, seed, outDir)
	}
	return measureEndToEnd(spec, seed, seconds)
}

// driverLine is the last line of standard output in -workload mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLineOf renders a measurement as the driver's line: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func driverLineOf(m *measurement) driverLine {
	defs := endToEndMetrics
	if m.Traced {
		defs = perLayerMetrics
	}
	line := driverLine{Correct: m.Correct && m.Failed == 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]driverValue{}}
	for _, def := range defs {
		line.Metrics[def.Name] = driverValue{Value: m.Metrics[def.Name], Unit: def.Unit}
	}
	return line
}

func runOne(name string, seed int64, seconds float64, traced, smoke bool, outDir string) int {
	spec, ok := findWorkload(name, smoke)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	m, err := measure(spec, seed, seconds, traced, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	printMeasurement(os.Stdout, m)
	if err := writeJSON(filepath.Join(outDir, "result.json"), resultFile{Env: environment(), Seed: seed, Seconds: seconds, Runs: []*measurement{m}}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	line := driverLineOf(m)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// printMeasurement prints every metric by name with its unit.
func printMeasurement(w *os.File, m *measurement) {
	defs, kind := endToEndMetrics, "end-to-end"
	if m.Traced {
		defs, kind = perLayerMetrics, "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s; %d components, inputs %s, tv=%d, detector fired=%v)\n",
		m.Workload, kind, m.Inputs.Components, m.Inputs.Digest, m.Inputs.TV, m.Inputs.Detected)
	for _, def := range defs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", def.Name, m.Metrics[def.Name], def.Unit)
	}
	names := make([]string, 0, len(m.Samples))
	for name := range m.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := m.Samples[name]
		fmt.Fprintf(w, "  samples %-32s n=%d q1=%.4f median=%.4f q3=%.4f iqr/median=%.4f\n", name, q.N, q.Q1, q.Med, q.Q3, q.iqrRatio())
	}
	fmt.Fprintf(w, "  checks: correct=%v attempted=%d failed=%d\n", m.Correct, m.Attempted, m.Failed)
	for _, note := range m.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Time       string `json:"time"`
}

func environment() envInfo {
	return envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH, Time: time.Now().UTC().Format(time.RFC3339)}
}

type resultFile struct {
	Env     envInfo        `json:"environment"`
	Seed    int64          `json:"seed"`
	Seconds float64        `json:"seconds"`
	Runs    []*measurement `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, append(data, '\n'))
}

// runSuite runs every workload end to end repeat times (alternating the
// order) and traced once. With more than one repetition it splits them into
// an earlier and a later half and fails if any end-to-end metric's median
// moved between the halves by more than the metric's own bound.
func runSuite(seed int64, seconds float64, repeat int, smoke bool, outDir string) int {
	specs := workloads(smoke)
	if smoke && seconds > 0.2 {
		seconds = 0.2
	}
	ok := true
	var (
		all   [][]*measurement
		calib []float64
	)
	for rep := 0; rep < repeat; rep++ {
		order := append([]workloadSpec(nil), specs...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		calib = append(calib, calibrate())
		var runs []*measurement
		for _, spec := range order {
			for _, traced := range []bool{false, true} {
				if traced && rep > 0 {
					continue
				}
				m, err := measure(spec, seed, seconds, traced, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Name, err)
					return 2
				}
				printMeasurement(os.Stdout, m)
				if !m.Correct || m.Failed > 0 {
					ok = false
				}
				runs = append(runs, m)
			}
		}
		all = append(all, runs)
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), resultFile{Env: environment(), Seed: seed, Seconds: seconds, Runs: all[0]}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if repeat > 1 {
		report := repeatReport{Env: environment(), CalibMS: calib, Rows: compareHalves(all)}
		if err := writeJSON(filepath.Join(outDir, "repeat.json"), report); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		for _, row := range report.Rows {
			verdict := "ok"
			if !row.Within {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Printf("repeat %-16s %-26s %s -> %s  medians %.4g -> %.4g  drift %.4f of bound %.2f  %s\n",
				row.Workload, row.Metric, formatValues(row.Earlier), formatValues(row.Later),
				median(row.Earlier), median(row.Later), row.Drift, row.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("FAIL")
		return 1
	}
	fmt.Println("PASS")
	return 0
}

func formatValues(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Earlier  []float64 `json:"earlier_runs"`
	Later    []float64 `json:"later_runs"`
	// Drift is how far the two halves' medians are apart, as a share of the
	// better one. Neither half is the baseline, so drift either way counts.
	Drift  float64 `json:"drift"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within_bound"`
}

type repeatReport struct {
	Env     envInfo     `json:"environment"`
	CalibMS []float64   `json:"calib_ms"` // the calibration kernel before each repetition
	Rows    []repeatRow `json:"rows"`
}

// worsening is how much worse got is than base, as a share of base, in the
// metric's own direction (negative when it improved).
func worsening(def metricDef, base, got float64) float64 {
	if base == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (base - got) / base
	}
	return (got - base) / base
}

// compareHalves lines up every end-to-end metric of every workload across
// the suite's repetitions, earlier half against later half.
func compareHalves(all [][]*measurement) []repeatRow {
	values := func(reps [][]*measurement, workload, metric string) []float64 {
		var out []float64
		for _, runs := range reps {
			for _, m := range runs {
				if !m.Traced && m.Workload == workload {
					out = append(out, m.Metrics[metric])
				}
			}
		}
		return out
	}
	half := len(all) / 2
	var rows []repeatRow
	for _, spec := range workloads(false) {
		for _, def := range endToEndMetrics {
			row := repeatRow{Workload: spec.Name, Metric: def.Name, Bound: def.Bound,
				Earlier: values(all[:half], spec.Name, def.Name), Later: values(all[half:], spec.Name, def.Name)}
			a, b := median(row.Earlier), median(row.Later)
			row.Drift = math.Max(worsening(def, a, b), worsening(def, b, a))
			row.Within = row.Drift <= def.Bound
			rows = append(rows, row)
		}
	}
	return rows
}
