package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"sort"
	"testing"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{100, 90}, // the benchmark's floor: exactly ten samples beyond p90
		{99, 89},
		{200, 95},
		{1000, 99},
		{50, 80},
		{21, 52},
		{20, 0}, // ten beyond the median would need 21
		{0, 0},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if !tailSupported(100, 90) || tailSupported(99, 90) {
		t.Errorf("p90 must be supported at exactly 100 samples and not at 99")
	}
}

func TestQuantilesAndSliceMedian(t *testing.T) {
	// Five equal-work slices of 1000 samples; one slow outlier must not move
	// the median rate.
	rates := sliceRates(1000, []float64{0.5, 0.25, 0.2, 0.25, 4})
	want := []float64{2000, 4000, 5000, 4000, 250}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("sliceRates[%d] = %v, want %v", i, rates[i], want[i])
		}
	}
	if got := median(rates); got != 4000 {
		t.Errorf("median slice rate = %v, want 4000", got)
	}
	q := quartilesOf([]float64{1, 2, 3, 4, 5})
	if q.N != 5 || q.Q1 != 2 || q.Med != 3 || q.Q3 != 4 {
		t.Errorf("quartilesOf(1..5) = %+v", q)
	}
	if got := q.iqrRatio(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrRatio = %v, want 2/3", got)
	}
	if got := quantile([]float64{10, 20}, 0.9); math.Abs(got-19) > 1e-12 {
		t.Errorf("quantile interpolates: got %v, want 19", got)
	}
	if median(nil) != 0 {
		t.Errorf("median of nothing must be 0")
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.localize", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "localize", StartNS: 10, EndNS: 90},
		// Two parallel asks overlap on [20,50]; their cover of the parent is
		// [20,70], not the sum of their lengths.
		{ID: 2, Parent: 1, Name: "ask:a", StartNS: 20, EndNS: 50},
		{ID: 3, Parent: 1, Name: "ask:b", StartNS: 20, EndNS: 70},
		{ID: 4, Parent: 1, Name: "diagnose", StartNS: 75, EndNS: 85},
		// A child that pokes outside its parent is clipped to it.
		{ID: 5, Parent: 3, Name: "analyze", StartNS: 30, EndNS: 95},
	}
	computeSelf(spans)
	want := []int64{20, 20, 30, 10, 10, 65}
	for i, w := range want {
		if spans[i].SelfNS != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, spans[i].SelfNS, w)
		}
	}
	// Blocking path: localize (20), the ask that ended last (b, 10) with the
	// analyze beneath it (65), and diagnose (10); ask:a is not followed. The
	// analyze span pokes out of its parent, which is what pushes the share
	// past 1 and what the 0.9..1.1 gate exists to catch.
	got := attributedShare(spans, "bench.localize")
	if wantShare := float64(20+10+65+10) / 100; math.Abs(got-wantShare) > 1e-12 {
		t.Errorf("attributedShare = %v, want %v", got, wantShare)
	}
	if got := covered([]interval{{0, 10}, {5, 20}, {30, 40}, {100, 200}}, 0, 50); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
}

func TestGeneratorIsDeterministicInTheSeed(t *testing.T) {
	spec := workloads(true)[1]
	a, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("same seed, different inputs: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 generated identical inputs (%s)", a.digest)
	}
	if len(a.comps) != 12 || a.first > a.tv || a.last < a.tv+maxCycles {
		t.Errorf("inputs cover [%d,%d] for tv %d with %d components", a.first, a.last, a.tv, len(a.comps))
	}
}

func TestCountingConnCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(conn, conn)
		echoed <- err
	}()
	tap := &wireTap{}
	conn, err := tap.dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(n int) {
		t.Helper()
		if _, err := conn.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip(64)
	if ns := tap.lastPayload().UnixNano(); ns != 0 {
		t.Errorf("a 64-byte frame counted as payload (at %d)", ns)
	}
	if tap.lastWrite().UnixNano() == 0 {
		t.Errorf("the 64-byte write was not seen at all")
	}
	roundTrip(1000)
	if tap.lastPayload().UnixNano() == 0 {
		t.Errorf("the 1000-byte frame did not register as payload")
	}
	if got := tap.bytes(); got != 2*(64+1000) {
		t.Errorf("tap counted %d bytes, want %d", got, 2*(64+1000))
	}
	conn.Close()
	if err := <-echoed; err != nil {
		t.Logf("echo side: %v", err)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesTheRunner(t *testing.T) {
	bf := readBenchmarkFile(t)
	specs := workloads(false)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), runner %q (%s)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		def := endToEndMetrics[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, runner %+v", i, m, def)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runner %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		if def := perLayerMetrics[i]; m.Name != def.Name || m.Unit != def.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, runner %+v", i, m, def)
		}
	}
}

// TestSmokeEmitsEveryMetricOncePerWorkload runs all four workloads at toy
// scale in both modes and checks the driver line: every metric BENCHMARK.json
// names, exactly once, with its unit, and the correctness checks passing.
func TestSmokeEmitsEveryMetricOncePerWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	outDir := t.TempDir()
	for _, spec := range workloads(true) {
		for _, traced := range []bool{false, true} {
			m, err := measure(spec, 1, 0.2, traced, outDir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.Name, traced, err)
			}
			line := driverLineOf(m)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					spec.Name, traced, line.Correct, line.Attempted, line.Failed, m.Notes)
			}
			want := make(map[string]string)
			if traced {
				for _, d := range bf.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range bf.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			var got []string
			for name, v := range line.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: emitted %q, which BENCHMARK.json does not name", spec.Name, traced, name)
				} else if v.Unit != unit {
					t.Errorf("%s traced=%v: %s has unit %q, want %q", spec.Name, traced, name, v.Unit, unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", spec.Name, name, v.Value)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", spec.Name, traced, name, v.Value)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s traced=%v: emitted %d metrics %v, want %d", spec.Name, traced, len(got), got, len(want))
			}
			if traced {
				if _, err := os.Stat(outDir + "/trace-" + spec.Name + ".jsonl"); err != nil {
					t.Errorf("%s: no span file: %v", spec.Name, err)
				}
			}
		}
	}
}
