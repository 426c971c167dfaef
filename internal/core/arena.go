package core

import (
	"sync"

	"fchain/internal/changepoint"
	"fchain/internal/timeseries"
)

// arena is the scratch memory one analysis worker owns while it runs: the
// materialized sample/error series the zero-copy window views point into,
// the smoothing/detrending/percentile buffers, and the change-point
// detector's scratch. Pooling arenas is what
// keeps the hot localize path allocation-free once the buffers have grown to
// the workload's window sizes.
//
// Ownership rule: an arena belongs to exactly one goroutine between getArena
// and putArena, and everything analyzeMetric returns by value is copied out
// of it before the next metric reuses the buffers.
type arena struct {
	vals timeseries.Series // materialized samples; views alias its storage
	errs timeseries.Series // materialized prediction errors

	smooth  []float64 // smoothed window
	detrend []float64 // detrended FFT input
	diffs   []float64 // sample-to-sample differences (adaptive smoothing)
	pctile  []float64 // percentile selection buffer

	cp changepoint.Scratch
}

var arenaPool = sync.Pool{New: func() any { return &arena{} }}

func getArena() *arena  { return arenaPool.Get().(*arena) }
func putArena(a *arena) { arenaPool.Put(a) }

// reset discards the arena's scratch in place. A panicking kernel can leave
// buffers and the change-point scratch mid-update; resetting costs the
// grown buffers but guarantees the next task starts from a clean state.
func (a *arena) reset() {
	*a = arena{}
}
