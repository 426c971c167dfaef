package markov

import "testing"

// TestObserveAllocFree guards the modeling hot path: once a predictor is
// warm, consuming an in-range sample must not allocate. The slave calls
// Observe for every (component, metric, second), so even one allocation here
// multiplies into steady GC pressure across a deployment.
func TestObserveAllocFree(t *testing.T) {
	p := New(DefaultBins, DefaultDecay)
	for i := 0; i < 500; i++ {
		p.Observe(50 + float64(i%17))
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p.Observe(50 + float64(i%17))
		i++
	})
	if allocs > 0 {
		t.Fatalf("warm in-range Observe allocates %.1f per call; want 0", allocs)
	}
}

// TestRemapRangeAllocFree guards the scratch reuse in reset/remapRange: after
// the first remap has populated the pooled count copy and the bin-center
// buffer, growing the discretization range of a warm predictor must be
// alloc-free.
// Trending metrics (a ramping memory leak, a filling disk) remap repeatedly,
// and before the scratch existed each remap rebuilt the full bins×bins matrix
// on the heap.
func TestRemapRangeAllocFree(t *testing.T) {
	p := New(DefaultBins, DefaultDecay)
	for i := 0; i < 200; i++ {
		p.Observe(50 + float64(i%10))
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Each value lands beyond the current hi, forcing a range remap.
	// AllocsPerRun's warm-up call absorbs the one-time scratch allocation.
	v := 1e4
	allocs := testing.AllocsPerRun(50, func() {
		p.Observe(v)
		v *= 3
	})
	if allocs > 0 {
		t.Fatalf("range remap allocates %.1f per Observe; scratch reuse should make it alloc-free", allocs)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
