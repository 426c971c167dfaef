package markov

import "testing"

// BenchmarkModuleMarkovObserve measures one warm Observe, the model update
// a slave pays for every (component, metric, second). On the steady-ingest
// feed a healthy stream's predictor holds 5.5 occupied rows and 28.7
// transitions on average; this one cycles through 29 transitions out of 6
// adjacent bins, so every Observe predicts from a learned row and adds to a
// cell it already has.
func BenchmarkModuleMarkovObserve(b *testing.B) {
	// Every ordered pair of consecutive entries, wrapping around, is
	// distinct: 29 transitions, each of the 6 bins the source of some.
	cycle := [...]int{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 1, 2, 1, 3, 1, 4, 1, 5, 2, 2, 3, 2, 4, 2, 5, 3, 5}
	p := NewDefault()
	p.Observe(100) // the range becomes [50, 150], 2.5 wide per bin
	var vals [len(cycle)]float64
	for i, c := range cycle {
		vals[i] = p.binCenter(18 + c)
	}
	for range 10 {
		for _, v := range vals {
			p.Observe(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		p.Observe(vals[i%len(vals)])
	}
	b.StopTimer()
	rows := 0
	for _, s := range p.rowSum {
		if s > 0 {
			rows++
		}
	}
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(len(p.cells)), "cells")
}
