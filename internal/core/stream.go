package core

import (
	"fchain/internal/changepoint"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// Streaming selection (Config.Streaming): instead of paying the whole
// selection burst at tv — percentile selections over ~1.3k context samples
// and a per-candidate FFT, per metric, per Localize — the shard folds a
// constant slice of that work into every Observe and the tv-time kernel
// assembles cached pieces:
//
//   - sorted context multisets: the values and prediction errors of the ring
//     positions before the look-back window are kept as incrementally
//     maintained sorted multisets, so the kernel's context percentiles
//     (p1/p99 of values, p90/max of errors) are O(1) lookups instead of
//     O(n) selections. Percentile interpolation over a sorted multiset is
//     the batch select-then-interpolate arithmetic (one shared helper in
//     timeseries), so the fast path changes no output bit;
//   - an FFT memo: ExpectedError keyed by the burst window's absolute
//     position and the spectral knobs. Ring content for retained positions
//     is immutable, so a hit replays the exact float the batch path would
//     recompute;
//   - a kernel memo: the full per-metric verdict keyed by the ring mutation
//     sequence numbers (timeseries.Ring.Seq), tv, and config, so
//     re-localizing an unchanged stream skips the kernel outright;
//   - a changepoint.Stream accumulator per metric: the O(1) incremental
//     CUSUM/Welford counterpart of the batch detector. It powers the
//     hot-stream telemetry and the incremental-vs-batch differential tests;
//     verdict bits never come from it (see changepoint.Stream).
//
// Cold fallback: the fast path is used only when the multisets provably
// cover exactly the context region the batch kernel would select over — the
// counts derived from (tv, LookBack, ring) must match the cursors. Any mismatch
// (analysis at a historical tv, an overridden look-back window, state
// freshly reset by a collection gap, Restore, or Predictor.Break)
// silently takes the batch path and bumps the cold counter. Correctness
// never depends on the state being warm.

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
	lookBack int

	// Sorted multisets over ring positions [0, cursor) — exactly the
	// context region [ring start, lastT−LookBack) the batch kernel reads.
	ctxVals timeseries.SortedWindow
	ctxErrs timeseries.SortedWindow
	cursor  int // sample-ring positions folded into ctxVals
	cursorE int // error-ring positions folded into ctxErrs

	acc   *changepoint.Stream
	fft   map[fftKey]float64
	dense bool // every push so far advanced time by exactly 1
	memo  selMemo

	colds    uint64 // fast-path misses that fell back to the batch kernel
	resets   uint64 // full state resets (gap, Break, Restore)
	memoHits uint64
}

func newStreamState(cfg Config) *streamState {
	return &streamState{
		lookBack: cfg.LookBack,
		acc:      changepoint.NewStream(cfg.LookBack),
		dense:    true,
	}
}

// resetState discards everything derived from the rings. Called when the
// dense history is severed (collection gap, Clear, model Break) and by
// rebuild after Restore. Caller holds the shard lock.
func (st *streamState) resetState() {
	st.ctxVals.Reset()
	st.ctxErrs.Reset()
	st.cursor, st.cursorE = 0, 0
	st.acc.Reset()
	st.fft = nil
	st.dense = true
	st.memo = selMemo{}
	st.resets++
}

// beforePush removes the about-to-be-evicted front samples from the context
// multisets while the ring still holds them. Caller holds the shard lock.
func (st *streamState) beforePush(sh *metricShard) {
	if sh.samples.Len() == sh.samples.Cap() && st.cursor > 0 {
		st.ctxVals.Remove(sh.samples.Value(0))
		st.cursor--
	}
	if sh.errs.Len() == sh.errs.Cap() && st.cursorE > 0 {
		st.ctxErrs.Remove(sh.errs.Value(0))
		st.cursorE--
	}
}

// afterPush advances the context boundary to the new lastT and feeds the
// accumulator. prevLast/prevHas are the shard's lastT/hasLast from before
// the push. Caller holds the shard lock.
func (st *streamState) afterPush(sh *metricShard, v float64, prevLast int64, prevHas bool) {
	if prevHas && sh.lastT != prevLast+1 {
		// A time jump breaks the position↔time mapping the FFT memo keys
		// rely on; the positional multisets are unaffected.
		st.dense = false
		st.fft = nil
	}
	st.syncCursors(sh)
	st.acc.Push(v)
}

// syncCursors moves both context cursors to the boundary the batch kernel
// would use for an analysis at tv == lastT: position count
// (lastT − LookBack) − firstTime, clamped to the ring. Caller holds the
// shard lock.
func (st *streamState) syncCursors(sh *metricShard) {
	st.cursor = syncOne(sh.samples, &st.ctxVals, st.cursor, sh.lastT, st.lookBack)
	st.cursorE = syncOne(sh.errs, &st.ctxErrs, st.cursorE, sh.lastT, st.lookBack)
}

func syncOne(r *timeseries.Ring, w *timeseries.SortedWindow, cursor int, lastT int64, lookBack int) int {
	if r.Len() == 0 {
		return 0
	}
	want64 := lastT - int64(lookBack) - r.First()
	want := 0
	if want64 > 0 {
		want = int(want64)
	}
	if want > r.Len() {
		want = r.Len()
	}
	for cursor > want {
		cursor--
		w.Remove(r.Value(cursor))
	}
	for cursor < want {
		w.Insert(r.Value(cursor))
		cursor++
	}
	return cursor
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
	if sh.hasLast {
		st.syncCursors(sh)
	}
}

// bytes approximates the state's retained heap memory.
func (st *streamState) bytes() int64 {
	return st.ctxVals.Bytes() + st.ctxErrs.Bytes() + st.acc.Bytes() +
		int64(len(st.fft))*int64(32)
}

// streamFacts is what materializeStream extracts under the shard lock beyond
// the plain series copies: either a whole-kernel memo hit, or the O(1)
// context statistics for the percentile fast path, or neither (cold).
type streamFacts struct {
	memoHit bool
	memoCh  AbnormalChange
	memoOK  bool

	fast  bool // context multisets cover exactly [start, tv−LookBack)
	nVals int  // context value count (== batch len(cv))
	p99   float64
	p1    float64
	nErrs int // context error count (== batch len(ctx))
	p90   float64
	maxE  float64

	seq  uint64 // ring sequence numbers at materialization time,
	eseq uint64 // for storing the kernel memo afterwards
}

// materializeStream is materialize plus the streaming lookups, all under one
// shard lock acquisition. With streaming disabled (or the state cold) it
// degrades to a plain materialize; misses of a warm state count as colds.
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
	// The multisets cover ring positions [0, cursor); the batch kernel reads
	// positions [0, (tv−LookBack)−start). Equality of the counts is
	// sufficient: whenever they agree, the multiset holds exactly the batch
	// context multiset, whichever (tv, LookBack) maintained it.
	lookbackStart := tv - int64(cfg.LookBack)
	wantV := contextLen(sv, lookbackStart)
	wantE := contextLen(se, lookbackStart)
	if wantV != st.ctxVals.Len() || wantE != st.ctxErrs.Len() {
		st.colds++
		return sv, se, facts
	}
	facts.fast = true
	facts.nVals = wantV
	facts.nErrs = wantE
	if wantV >= minContext {
		facts.p99, _ = st.ctxVals.Percentile(99)
		facts.p1, _ = st.ctxVals.Percentile(1)
	}
	if wantE >= minContext {
		facts.p90, _ = st.ctxErrs.Percentile(90)
		facts.maxE, _ = st.ctxErrs.Max()
	}
	return sv, se, facts
}

// minContext is the batch kernel's minimum context length for the
// self-calibration statistics (select.go's len >= 8 guards).
const minContext = 8

// contextLen is the length of s.ViewRange(s.Start(), lookbackStart) without
// building the view.
func contextLen(s *timeseries.Series, lookbackStart int64) int {
	n := int(lookbackStart - s.Start())
	if n < 0 {
		n = 0
	}
	if n > s.Len() {
		n = s.Len()
	}
	return n
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
	// Colds counts analyses that found the fast path unusable (cold state,
	// historical tv, overridden window) and fell back to the batch kernel.
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
