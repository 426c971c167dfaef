package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fchain/internal/ingest"
	"fchain/internal/markov"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// Typed ingestion errors. Callers that feed monitors from untrusted
// collection paths match these with errors.Is to decide between dropping the
// sample and surfacing a collection-pipeline fault.
var (
	// ErrBadSample rejects a non-finite (NaN or ±Inf) metric value.
	ErrBadSample = errors.New("core: bad sample")
	// ErrTimeRegression rejects a sample whose timestamp does not advance
	// past the last accepted one for the same metric. The dense ring
	// indexing assumes one sample per second; an equal or earlier timestamp
	// would silently misalign every later window query.
	ErrTimeRegression = errors.New("core: time regression")
)

// metricShard bundles everything the monitor keeps for one metric — the
// online prediction model, the bounded sample and prediction-error
// histories, the ingest sanitizer, and the last accepted timestamp — behind
// its own mutex. Sharding by metric is what lets the collection goroutine
// keep observing one metric while analysis workers snapshot the others:
// the two paths only ever contend on the single shard they both touch, and
// the analyze path holds that shard's lock just long enough to copy the
// retained history into its private arena.
type metricShard struct {
	mu        sync.Mutex
	model     *markov.Predictor
	samples   *timeseries.Ring
	errs      *timeseries.Ring
	sanitizer *ingest.Sanitizer
	// released is the sanitizer's output buffer, reused by every Ingest and
	// FlushIngest on the shard so releasing a sample allocates nothing.
	released []ingest.Sample
	lastT    int64
	hasLast  bool

	// Panic quarantine (overload.go): a stream whose selection kernel
	// panicked is skipped until the cooldown elapses, then probed once.
	quarantined   bool
	quarantinedAt time.Time
}

// push commits one validated sample to the shard's model and histories. The
// caller holds the shard's lock.
func (sh *metricShard) push(t int64, v float64) {
	predErr, _ := sh.model.Observe(v)
	sh.samples.Push(t, v)
	sh.errs.Push(t, predErr)
	sh.lastT = t
	sh.hasLast = true
}

// apply commits one sanitized sample, severing the metric's dense history
// first when the sanitizer marked a long collection gap: the pre-gap samples
// would misalign the dense window indexing, and predicting the first
// post-gap sample from the last pre-gap state would charge the model a
// phantom transition across the outage. The caller holds the shard's lock.
func (sh *metricShard) apply(s ingest.Sample) {
	if s.GapBefore > 0 {
		sh.samples.Clear()
		sh.errs.Clear()
		sh.model.Break()
	}
	sh.push(s.T, s.V)
}

// Monitor is the slave-side state for one monitored component: an online
// prediction model per metric plus bounded sample and prediction-error
// histories. It implements the "normal fluctuation modeling" module of
// Fig. 1: the model continuously learns each metric's evolving value
// pattern, so that change points caused by already-seen workload behaviour
// predict well while fault-induced changes do not (paper §II-A).
//
// Samples enter through one of two paths. Observe is strict: it rejects
// non-finite values and non-advancing timestamps with typed errors and is
// meant for callers that control their collection loop. Ingest tolerates
// dirty real-world streams: a per-metric sanitizer reorders slightly late
// samples, drops garbage, interpolates short collection gaps, and severs the
// dense history across long ones, accumulating quality counters that
// propagate into every report.
//
// Monitor is safe for concurrent use: state is sharded per metric, so the
// collection path (Observe/Ingest) and the analysis path contend only when
// they touch the same metric, and then only for the duration of a history
// copy. Analysis runs on a point-in-time copy of each shard taken under the
// shard lock.
type Monitor struct {
	component string
	cfg       Config
	// shards is indexed directly by metric.Kind (kinds start at 1; index 0
	// is unused), trading one unused slot for branch-free lookup.
	shards [metric.NumKinds + 1]metricShard
}

// NewMonitor returns a monitor for the named component.
func NewMonitor(component string, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{component: component, cfg: cfg}
	// Every ring lives as long as the monitor, so all twelve share one
	// backing array (timeseries.NewRings); applyFull refills them in place.
	rings := timeseries.NewRings(2*metric.NumKinds, cfg.RingCapacity)
	for i, k := range metric.Kinds {
		sh := &m.shards[k]
		sh.model = markov.New(cfg.MarkovBins, cfg.MarkovDecay)
		sh.samples, sh.errs = &rings[2*i], &rings[2*i+1]
		sh.sanitizer = ingest.NewSanitizer(cfg.ingestConfig())
	}
	return m
}

// Component returns the monitored component's name.
func (m *Monitor) Component() string { return m.component }

// shard returns metric k's shard, or nil for an invalid kind.
func (m *Monitor) shard(k metric.Kind) *metricShard {
	if k < 1 || int(k) >= len(m.shards) {
		return nil
	}
	return &m.shards[k]
}

// Observe feeds one metric sample (taken at time t) into the model and the
// bounded history. It is the strict path: values must be finite
// (ErrBadSample otherwise) and timestamps must strictly advance per metric
// (ErrTimeRegression otherwise). Collection paths that cannot guarantee
// either should use Ingest instead.
func (m *Monitor) Observe(t int64, k metric.Kind, v float64) error {
	sh := m.shard(k)
	if sh == nil {
		return fmt.Errorf("core: invalid metric kind %v", k)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s=%v at t=%d", ErrBadSample, k, v, t)
	}
	sh.mu.Lock()
	if sh.hasLast && t <= sh.lastT {
		last := sh.lastT
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s sample at t=%d, already observed t=%d", ErrTimeRegression, k, t, last)
	}
	sh.push(t, v)
	sh.mu.Unlock()
	return nil
}

// Ingest feeds one possibly-dirty metric sample through the per-metric
// sanitizer: non-finite values are dropped, corrupted magnitudes clamped,
// slightly out-of-order arrivals buffered and reordered, short collection
// gaps interpolated, and long gaps marked so the dense history is severed.
// The error reports only an invalid metric kind; data problems are absorbed
// into the quality counters rather than returned.
func (m *Monitor) Ingest(t int64, k metric.Kind, v float64) error {
	sh := m.shard(k)
	if sh == nil {
		return fmt.Errorf("core: invalid metric kind %v", k)
	}
	sh.mu.Lock()
	sh.released = sh.sanitizer.AppendPush(sh.released[:0], t, v)
	for _, s := range sh.released {
		sh.apply(s)
	}
	sh.mu.Unlock()
	return nil
}

// FlushIngest releases every sample still buffered in the reorder windows
// with timestamp <= upTo. Analyze calls it with tv so an analysis never runs
// behind samples the sanitizer is still holding.
func (m *Monitor) FlushIngest(upTo int64) {
	for _, k := range metric.Kinds {
		sh := &m.shards[k]
		sh.mu.Lock()
		sh.released = sh.sanitizer.AppendFlush(sh.released[:0], upTo)
		for _, s := range sh.released {
			sh.apply(s)
		}
		sh.mu.Unlock()
	}
}

// Quality aggregates the sanitizer statistics across all metrics of the
// component. Monitors fed exclusively through the strict Observe path
// report zero counters, which score as perfectly clean.
func (m *Monitor) Quality() ingest.Stats {
	var st ingest.Stats
	for _, k := range metric.Kinds {
		sh := &m.shards[k]
		sh.mu.Lock()
		st.Merge(sh.sanitizer.Stats())
		sh.mu.Unlock()
	}
	return st
}

// ObserveVector feeds a full metric vector at time t through the strict
// path.
func (m *Monitor) ObserveVector(t int64, vec *metric.Vector) error {
	for _, k := range metric.Kinds {
		if err := m.Observe(t, k, vec.Get(k)); err != nil {
			return err
		}
	}
	return nil
}
