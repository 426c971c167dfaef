package core

import (
	"fchain/internal/changepoint"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// Streaming selection (Config.Streaming): the shard keeps a little state
// beside its rings so that the tv-time kernel can reuse work an earlier
// analysis already did:
//
//   - a kernel memo: the full per-metric verdict keyed by the ring mutation
//     sequence numbers (timeseries.Ring.Seq), tv, and config, so
//     re-localizing an unchanged stream skips the kernel outright;
//   - an FFT memo: ExpectedError keyed by the burst window's absolute
//     position and the spectral knobs. Ring content for retained positions
//     is immutable, so a hit replays the exact float the batch path would
//     recompute;
//   - a changepoint.Stream accumulator per metric: the O(1) incremental
//     CUSUM/Welford counterpart of the batch detector. It powers the
//     hot-stream telemetry and the incremental-vs-batch differential tests;
//     verdict bits never come from it (see changepoint.Stream).
//
// Every analysis the kernel memo does not answer runs the batch kernel,
// context statistics and all, and counts as cold. Both memos replay bits
// the batch kernel produced, so streaming changes timings, never outputs,
// and correctness never depends on the state being warm.

// fftKey identifies one burst-window ExpectedError computation: the window's
// absolute start time and length. Positions map stably to times only while
// the ring is dense; streamState.dense gates the memo accordingly.
type fftKey struct {
	start int64
	n     int
}

// maxFFTMemo bounds the per-metric FFT memo; at 10k components × 6 metrics a
// runaway map would dominate slave memory. Overflow clears the map — entries
// are cheap to recompute and queries cluster on recent windows anyway.
const maxFFTMemo = 32

// selMemo caches one metric's full kernel verdict. Valid only while both
// rings' sequence numbers still match — any Push or Clear invalidates it —
// and only for the exact (tv, cfg) that produced it.
type selMemo struct {
	valid bool
	seq   uint64
	eseq  uint64
	tv    int64
	cfg   Config
	ch    AbnormalChange
	ok    bool
}

// streamState is the per-(component, metric) streaming state, owned by its
// metricShard and guarded by the shard mutex.
type streamState struct {
	acc   *changepoint.Stream
	fft   map[fftKey]float64
	dense bool // every push so far advanced time by exactly 1
	memo  selMemo

	colds    uint64 // analyses the kernel memo missed, run by the batch kernel
	resets   uint64 // full state resets (gap, Break, Restore)
	memoHits uint64
}

func newStreamState(cfg Config) *streamState {
	return &streamState{
		acc:   changepoint.NewStream(cfg.LookBack),
		dense: true,
	}
}

// resetState discards everything derived from the rings. Called when the
// dense history is severed (collection gap, Clear, model Break) and by
// rebuild after Restore. Caller holds the shard lock.
func (st *streamState) resetState() {
	st.acc.Reset()
	st.fft = nil
	st.dense = true
	st.memo = selMemo{}
	st.resets++
}

// afterPush feeds the accumulator. prevLast/prevHas are the shard's
// lastT/hasLast from before the push. Caller holds the shard lock.
func (st *streamState) afterPush(sh *metricShard, v float64, prevLast int64, prevHas bool) {
	if prevHas && sh.lastT != prevLast+1 {
		// A time jump breaks the position↔time mapping the FFT memo keys
		// rely on.
		st.dense = false
		st.fft = nil
	}
	st.acc.Push(v)
}

// rebuild reconstructs the streaming state deterministically from the
// shard's current rings — the post-Restore path. Replaying the retained
// samples oldest-first leaves the accumulator exactly as if only those
// samples had ever been observed, so two daemons restored from the same
// checkpoint agree bit-for-bit. Caller holds the shard lock.
func (st *streamState) rebuild(sh *metricShard) {
	st.resetState()
	n := sh.samples.Len()
	dense := true
	var prev int64
	for i := 0; i < n; i++ {
		t, v := sh.samples.At(i)
		if i > 0 && t != prev+1 {
			dense = false
		}
		prev = t
		st.acc.Push(v)
	}
	st.dense = dense
}

// bytes approximates the state's retained heap memory.
func (st *streamState) bytes() int64 {
	return st.acc.Bytes() + int64(len(st.fft))*int64(32)
}

// streamFacts is what materializeStream extracts under the shard lock beyond
// the plain series copies: a whole-kernel memo hit, or the ring sequence
// numbers a batch-kernel verdict is memoized under.
type streamFacts struct {
	memoHit bool
	memoCh  AbnormalChange
	memoOK  bool

	seq  uint64 // ring sequence numbers at materialization time,
	eseq uint64 // for storing the kernel memo afterwards
}

// materializeStream copies metric k's retained samples and prediction errors
// into the arena's series under the shard lock, and looks up the kernel memo
// under the same lock acquisition. Every window and context query of one
// analysis pass takes zero-copy views of the two series, which the arena's
// next copy invalidates; once the copy is out, analysis proceeds without
// blocking the collection path. With streaming on, every analysis the memo
// does not answer counts as cold.
// memoEligible is false for traced runs and active fault-injection hooks —
// both must execute the real kernel.
func (m *Monitor) materializeStream(tv int64, k metric.Kind, cfg Config, a *arena, memoEligible bool) (sv, se *timeseries.Series, facts streamFacts) {
	sh := &m.shards[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sv = sh.samples.SeriesInto(&a.vals)
	se = sh.errs.SeriesInto(&a.errs)
	st := sh.stream
	if st == nil {
		return sv, se, facts
	}
	facts.seq = sh.samples.Seq()
	facts.eseq = sh.errs.Seq()
	if memoEligible && st.memo.valid &&
		st.memo.seq == facts.seq && st.memo.eseq == facts.eseq &&
		st.memo.tv == tv && st.memo.cfg == cfg {
		st.memoHits++
		facts.memoHit = true
		facts.memoCh = st.memo.ch
		facts.memoOK = st.memo.ok
		return sv, se, facts
	}
	st.colds++
	return sv, se, facts
}

// storeMemo records a finished kernel verdict for the exact ring state it
// was computed from.
func (m *Monitor) storeMemo(k metric.Kind, facts streamFacts, tv int64, cfg Config, ch AbnormalChange, ok bool) {
	sh := &m.shards[k]
	sh.mu.Lock()
	if st := sh.stream; st != nil {
		st.memo = selMemo{
			valid: true,
			seq:   facts.seq, eseq: facts.eseq,
			tv: tv, cfg: cfg,
			ch: ch, ok: ok,
		}
	}
	sh.mu.Unlock()
}

// expectedErrorCached is expectedErrorAt behind the FFT memo. baseTime is
// the absolute time of raw[0]; a hit returns the identical float a fresh
// computation would, because ring content for retained positions never
// changes while the ring stays dense.
func (m *Monitor) expectedErrorCached(k metric.Kind, raw []float64, idx int, baseTime int64, cfg Config, a *arena) (float64, error) {
	sh := &m.shards[k]
	sh.mu.Lock()
	st := sh.stream
	if st == nil || !st.dense {
		sh.mu.Unlock()
		return expectedErrorAt(raw, idx, cfg, a)
	}
	lo, hi := burstBounds(idx, len(raw), cfg)
	key := fftKey{start: baseTime + int64(lo), n: hi - lo}
	if v, ok := st.fft[key]; ok {
		sh.mu.Unlock()
		return v, nil
	}
	sh.mu.Unlock()
	v, err := expectedErrorAt(raw, idx, cfg, a)
	if err != nil {
		return v, err
	}
	sh.mu.Lock()
	if st := sh.stream; st != nil && st.dense {
		if st.fft == nil {
			st.fft = make(map[fftKey]float64, maxFFTMemo)
		} else if len(st.fft) >= maxFFTMemo {
			clear(st.fft)
		}
		st.fft[key] = v
	}
	sh.mu.Unlock()
	return v, nil
}

// StreamingStats aggregates the monitor's streaming-selection telemetry
// across metrics. All zeros when Config.Streaming is off.
type StreamingStats struct {
	// Streams is the number of metric streams carrying streaming state.
	Streams int `json:"streams,omitempty"`
	// Bytes approximates the heap retained by all streaming state.
	Bytes int64 `json:"bytes,omitempty"`
	// Colds counts analyses that ran the batch kernel: every analysis the
	// kernel memo did not answer.
	Colds uint64 `json:"colds,omitempty"`
	// Resets counts full state resets: collection gaps, model breaks,
	// checkpoint restores.
	Resets uint64 `json:"resets,omitempty"`
	// MemoHits counts whole-kernel verdicts served from the memo.
	MemoHits uint64 `json:"memo_hits,omitempty"`
	// Hot is the number of streams whose incremental CUSUM currently ranks
	// above the configured change-point confidence — the always-on "which
	// streams look abnormal right now" signal the accumulators provide
	// between Localize calls.
	Hot int `json:"hot,omitempty"`
}

// Merge folds other into s.
func (s *StreamingStats) Merge(other StreamingStats) {
	s.Streams += other.Streams
	s.Bytes += other.Bytes
	s.Colds += other.Colds
	s.Resets += other.Resets
	s.MemoHits += other.MemoHits
	s.Hot += other.Hot
}

// StreamingStats reports the component's streaming-selection telemetry.
func (m *Monitor) StreamingStats() StreamingStats {
	var out StreamingStats
	for _, k := range metric.Kinds {
		sh := &m.shards[k]
		sh.mu.Lock()
		if st := sh.stream; st != nil {
			out.Streams++
			out.Bytes += st.bytes()
			out.Colds += st.colds
			out.Resets += st.resets
			out.MemoHits += st.memoHits
			if conf, ok := st.acc.Confidence(m.cfg.Bootstraps); ok && conf >= m.cfg.CPConfidence {
				out.Hot++
			}
		}
		sh.mu.Unlock()
	}
	return out
}
