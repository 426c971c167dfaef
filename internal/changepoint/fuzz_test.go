package changepoint

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeries decodes data as little-endian float64s (arbitrary bit
// patterns, NaN/Inf included), capped so the bootstrap stays cheap.
func fuzzSeries(data []byte, max int) []float64 {
	n := len(data) / 8
	if n > max {
		n = max
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// FuzzDetect runs the whole change-point pipeline — Detect, SelectOutliers,
// RollbackOnset — on adversarial series and parameters. The contract under
// garbage input is: no panic, indices in range, output sorted, the rollback
// result a valid sample index at or before its change point, and Detect in
// both modes bit-identical to the reference detector (reference_test.go).
func FuzzDetect(f *testing.F) {
	f.Add([]byte{}, 1.5, 0.1)
	step := make([]byte, 0, 60*8)
	var buf [8]byte
	for i := 0; i < 60; i++ {
		v := 10.0
		if i >= 30 {
			v = 90.0
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		step = append(step, buf[:]...)
	}
	f.Add(step, 1.0, 0.1)
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(math.Inf(1)))
	f.Add(append(append([]byte{}, buf[:]...), step[:80]...), math.NaN(), -1.0)

	f.Fuzz(func(t *testing.T, data []byte, sigma, tol float64) {
		vals := fuzzSeries(data, 256)
		pts := Detect(vals, Config{Bootstraps: 25})
		if diff := samePoints(pts, refDetect(vals, Config{Bootstraps: 25})); diff != "" {
			t.Fatalf("bootstrap mode: %s from the reference detector", diff)
		}
		table := Detect(vals, Config{Thresholds: 25})
		if diff := samePoints(table, refDetect(vals, Config{Thresholds: 25})); diff != "" {
			t.Fatalf("table mode: %s from the reference detector", diff)
		}

		// Table mode shares the pipeline contract: same index/ordering
		// invariants, no panic, confidence in range, on arbitrary input.
		for _, p := range table {
			if p.Index <= 0 || p.Index >= len(vals) {
				t.Fatalf("table-mode index %d out of range (n=%d)", p.Index, len(vals))
			}
			if p.Confidence < 0 || p.Confidence > 1 {
				t.Fatalf("table-mode confidence %v outside [0,1]", p.Confidence)
			}
		}

		last := -1
		for _, p := range pts {
			if p.Index <= 0 || p.Index >= len(vals) {
				t.Fatalf("change point index %d out of range (n=%d)", p.Index, len(vals))
			}
			if p.Index <= last {
				t.Fatalf("change points not strictly increasing: %d after %d", p.Index, last)
			}
			last = p.Index
			if p.Confidence < 0 || p.Confidence > 1 {
				t.Fatalf("confidence %v outside [0,1]", p.Confidence)
			}
		}

		sel := SelectOutliers(pts, sigma)
		if len(pts) > 0 && len(sel) > len(pts) {
			t.Fatalf("SelectOutliers grew the set: %d -> %d", len(pts), len(sel))
		}

		// Roll back from every detected point, plus deliberately bogus
		// indices, which must degrade to onset 0 rather than panic.
		for i := range pts {
			onset := RollbackOnset(vals, pts, i, tol)
			if onset < 0 || onset > pts[i].Index {
				t.Fatalf("onset %d outside [0, %d]", onset, pts[i].Index)
			}
		}
		for _, bogus := range []int{-1, len(pts), len(pts) + 7} {
			if onset := RollbackOnset(vals, pts, bogus, tol); onset != 0 {
				t.Fatalf("RollbackOnset(bogus %d) = %d, want 0", bogus, onset)
			}
		}
	})
}
