package core

// Replication deltas for warm-standby owners. A primary slave ships each
// component's state to its standby on a batched interval; rather than
// re-serializing the component's whole state every tick, the steady-state
// frame carries only the samples observed since the previous ship, as runs
// of consecutive seconds whose values travel as raw IEEE-754 bits, and the
// standby replays them through its shadow monitor's strict Observe path.
// Monitor state is a pure function of the observed sample sequence plus the
// config (the same invariant the checkpoint-restore and handoff paths
// already rely on), so replay reproduces the primary's model and rings
// byte-identically — there is no separate "apply a model diff" code path to
// keep in sync with Observe.
//
// The incremental path is only sound while the primary's bounded ring still
// retains every sample past the shipped floor. Eviction past the floor, a
// gap sever (Clear), or a brand-new metric all force a full frame, which
// carries every metric's model, last timestamp and both rings, the rings as
// the same runs of bits; the standby likewise rejects any delta whose base
// precondition does not match its shadow state (ErrReplGap), and the
// primary answers a rejection by resending a full frame. Either endpoint can
// therefore lose state at any time and the channel self-heals on the next
// tick.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"fchain/internal/ingest"
	"fchain/internal/markov"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// ErrReplGap rejects a replication frame the shadow monitor cannot apply:
// an incremental delta whose base precondition does not match the shadow's
// state (samples are missing between the two, so replay would silently
// diverge), or a malformed or undecodable frame. The primary resolves it by
// shipping a full frame.
var ErrReplGap = errors.New("core: replication gap")

// ReplRun is a run of samples at consecutive timestamps T0, T0+1, … inside
// a frame. V holds each value's IEEE-754 bits, little-endian, 8 bytes per
// sample, which the wire encoding (replwire.go) carries as they are: a value
// crosses the wire bit-exact and is neither formatted nor parsed as a
// decimal. In a full frame E holds the samples' prediction errors the same
// way, one per value; an incremental frame carries none, since replay
// recomputes them.
type ReplRun struct {
	T0 int64
	V  []byte
	E  []byte
}

// n returns the number of samples in the run.
func (r *ReplRun) n() int { return len(r.V) / 8 }

// last returns the run's last timestamp.
func (r *ReplRun) last() int64 { return r.T0 + int64(r.n()) - 1 }

// value returns the run's i-th value.
func (r *ReplRun) value(i int) float64 { return bitsAt(r.V, i) }

func bitsAt(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// ReplDelta is one replication frame: a slot per metric, indexed like
// metric.Kinds. A full frame (first ship, or recovery after a gap) carries
// every metric's complete state. An incremental frame is a sample replay:
// each slot's LastT/HasLast is the base, the primary's last-shipped
// timestamp that the standby's shadow must hold before replaying the slot's
// runs (absent for a metric the primary has never observed). Either shape
// carries the primary's sanitizer states as of the same instant: replay
// goes through Observe, which never feeds the shadow's own sanitizers.
// AppendBinary and DecodeDelta (replwire.go) carry it on the wire.
type ReplDelta struct {
	Component string
	Full      bool
	Metrics   [metric.NumKinds]ReplMetric
}

// ReplMetric is one metric's slot in a frame. Model is the Markov model,
// full frames only. LastT is the last accepted timestamp, present when
// HasLast: in a full frame the metric's own, in an incremental one the
// base. Runs are the retained rings, oldest first, in a full frame, and the
// samples since the base in an incremental one. Sanitizer is the ingest
// sanitizer's state; the zero value is a fresh sanitizer.
type ReplMetric struct {
	Model     *markov.Snapshot
	LastT     int64
	HasLast   bool
	Runs      []ReplRun
	Sanitizer ingest.State
}

// FullCause says why FrameInto built a full frame rather than an
// incremental one.
type FullCause string

const (
	// FullFirst: nothing has been shipped on the floors.
	FullFirst FullCause = "first"
	// FullNewMetric: a metric gained its first samples since the last ship.
	FullNewMetric FullCause = "new_metric"
	// FullSever: a metric's history no longer reaches back to its floor
	// for a reason other than eviction: a long gap severed it, or the
	// monitor holds less than was shipped.
	FullSever FullCause = "sever"
	// FullEviction: a full ring evicted samples past a metric's floor.
	FullEviction FullCause = "eviction"
	// FullNAK and FullReset are why a caller forgot its floors, which
	// FrameInto then reports instead of FullFirst: the standby refused a
	// frame, or a placement change reset the channel.
	FullNAK   FullCause = "nak"
	FullReset FullCause = "reset"
)

// Floors is one replication channel's cursor: per metric, the last
// timestamp the standby holds once every frame handed to the transport has
// arrived. The zero value has shipped nothing, so the next frame is full.
type Floors struct {
	t      [metric.NumKinds]int64
	has    [metric.NumKinds]bool
	live   bool      // a full frame has been shipped since the last Forget
	forgot FullCause // why the floors were last forgotten
}

// Forget makes the next frame full, with FrameInto naming cause for it,
// unless the floors are already forgotten.
func (f *Floors) Forget(cause FullCause) {
	if f.live {
		*f = Floors{forgot: cause}
	}
}

// FrameInto fills d with the frame that brings a standby holding this
// monitor's samples up to floors level with it: an incremental delta while
// the incremental path is sound, a full frame, with why it is full,
// otherwise. changed=false means there is nothing to send. d's buffers are
// reused across calls. FrameInto does not move floors; the caller does, with
// AdvanceFloors, once the frame is handed to the transport, so a failed send
// re-extracts the same samples next tick.
func (m *Monitor) FrameInto(d *ReplDelta, floors *Floors) (cause FullCause, changed bool) {
	changed, cause = m.deltaInto(d, floors)
	if cause == "" {
		return "", changed
	}
	m.fullInto(d)
	return cause, true
}

// fullInto fills d with a full frame, reading each metric's state under its
// shard lock.
func (m *Monitor) fullInto(d *ReplDelta) {
	d.Component, d.Full = m.component, true
	for i, k := range metric.Kinds {
		s := &d.Metrics[i]
		sh := &m.shards[k]
		sh.mu.Lock()
		s.Model = sh.model.Snapshot()
		s.LastT, s.HasLast = sh.lastT, sh.hasLast
		s.Sanitizer = sh.sanitizer.State()
		s.Runs = appendRuns(nil, sh.samples, sh.errs, 0)
		sh.mu.Unlock()
	}
}

// appendRuns appends samples' values from the from-th on to runs, a run per
// stretch of consecutive timestamps, copying each stretch once; with errs,
// the prediction errors at the same positions ride in each run's E. It
// reuses the runs and value buffers in runs' spare capacity. The caller
// holds the rings' shard lock.
func appendRuns(runs []ReplRun, samples, errs *timeseries.Ring, from int) []ReplRun {
	for i, n := from, 0; i < samples.Len(); i += n {
		runs = slices.Grow(runs, 1)[:len(runs)+1]
		r := &runs[len(runs)-1]
		r.V, r.T0, n = samples.AppendStretch(r.V[:0], i)
		if r.E = r.E[:0]; errs != nil {
			r.E, _, _ = errs.AppendStretch(r.E, i)
		}
	}
	return runs
}

// deltaInto fills d with the samples observed since floors and reports
// whether anything new was extracted, or names why the incremental path is
// unsound — nothing shipped since the floors were forgotten, a metric that
// gained its first samples since the last ship, a gap sever, or ring
// eviction past the floor — and the caller must ship a full frame instead.
// d's slices are reused across calls, so steady-state extraction allocates
// nothing (see the alloc guard test).
func (m *Monitor) deltaInto(d *ReplDelta, floors *Floors) (changed bool, cause FullCause) {
	if !floors.live {
		if floors.forgot != "" {
			return false, floors.forgot
		}
		return false, FullFirst
	}
	if d.Full {
		// A full frame's ring-sized buffers are not kept once the channel is
		// back on the incremental path: a standby resync is rare, and they
		// would stay resident beside the monitors.
		*d = ReplDelta{}
	}
	d.Component = m.component
	for i, k := range metric.Kinds {
		s := &d.Metrics[i]
		sh := &m.shards[k]
		sh.mu.Lock()
		s.Sanitizer = sh.sanitizer.State()
		floor, haveFloor := floors.t[i], floors.has[i]
		s.LastT, s.HasLast, s.Runs = floor, haveFloor, s.Runs[:0]
		switch {
		case !sh.hasLast && haveFloor:
			// The shadow holds samples for a metric we no longer have any
			// state for; only a full snapshot can reconcile that.
			cause = FullSever
		case !sh.hasLast:
		case !haveFloor:
			cause = FullNewMetric
		case sh.lastT < floor:
			cause = FullSever
		case sh.lastT > floor:
			ring := sh.samples
			n := ring.Len()
			if n == 0 || ring.First() > floor {
				// Eviction or a gap sever dropped samples past the floor; the
				// replay sequence is broken. A ring evicts only once it is
				// full, so a ring with room left lost its samples to a sever.
				cause = FullSever
				if n == ring.Cap() {
					cause = FullEviction
				}
				break
			}
			// Binary search for the first retained sample newer than the
			// floor (timestamps are strictly ascending within a ring).
			lo, hi := 0, n
			for lo < hi {
				mid := (lo + hi) / 2
				if t, _ := ring.At(mid); t <= floor {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			// Runs and their value buffers are reused from the previous
			// call; a timestamp jump (a restored gap, or the strict path)
			// opens a run.
			s.Runs = appendRuns(s.Runs, ring, nil, lo)
			changed = true
		}
		sh.mu.Unlock()
		if cause != "" {
			return false, cause
		}
	}
	return changed, ""
}

// AdvanceFloors moves floors level with frame d once d is handed to the
// transport: each metric's floor becomes the last timestamp d ships for it,
// or d's last (full) or base (incremental) timestamp when d ships none. An
// incremental frame leaves forgotten floors as they are: the next frame is
// full whatever the standby made of this one.
func (d *ReplDelta) AdvanceFloors(floors *Floors) {
	if !d.Full && !floors.live {
		return
	}
	for i := range d.Metrics {
		s := &d.Metrics[i]
		floors.t[i], floors.has[i] = s.LastT, s.HasLast
		if n := len(s.Runs); n > 0 {
			floors.t[i], floors.has[i] = s.Runs[n-1].last(), true
		}
	}
	floors.live, floors.forgot = true, ""
}

// ApplyDelta applies one replication frame to this (shadow) monitor. A full
// frame replaces the shadow's state wholesale through applyFull. An
// incremental frame is checked whole before anything is mutated: every
// metric's base precondition against the shadow's last accepted timestamps,
// and every run (whole 8-byte values, at least one, finite, no timestamp
// overflow, each starting past the previous run's end and past the base).
// Any failure leaves the shadow untouched; a malformed or mismatched frame
// is refused with ErrReplGap. Otherwise the samples replay through the
// strict Observe path, which reproduces the primary's post-ship state
// exactly.
//
// Concurrent ApplyDelta calls for the same monitor are the caller's problem:
// the replication channel delivers one component's frames in order.
func (m *Monitor) ApplyDelta(d *ReplDelta) error {
	if d == nil {
		return fmt.Errorf("core: nil replication delta")
	}
	if d.Component != m.component {
		return fmt.Errorf("core: delta is for component %q, monitor is %q", d.Component, m.component)
	}
	if d.Full {
		if err := m.applyFull(d); err != nil {
			return fmt.Errorf("%w: %v", ErrReplGap, err)
		}
		return nil
	}
	for i, k := range metric.Kinds {
		s := &d.Metrics[i]
		sh := &m.shards[k]
		sh.mu.Lock()
		has, last := sh.hasLast, sh.lastT
		sh.mu.Unlock()
		if s.HasLast != has || (has && s.LastT != last) {
			return fmt.Errorf("%w: %s shadow at t=%d (present=%v), delta base t=%d (present=%v)",
				ErrReplGap, k, last, has, s.LastT, s.HasLast)
		}
		if err := checkRuns(s.Runs, s.LastT, s.HasLast, false); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrReplGap, k, err)
		}
	}
	for i, k := range metric.Kinds {
		s := &d.Metrics[i]
		for _, r := range s.Runs {
			for j := range r.n() {
				if err := m.Observe(r.T0+int64(j), k, r.value(j)); err != nil {
					return fmt.Errorf("%w: replay %s: %v", ErrReplGap, k, err)
				}
			}
		}
		sh := &m.shards[k]
		sh.mu.Lock()
		sh.sanitizer.SetState(s.Sanitizer)
		sh.mu.Unlock()
	}
	return nil
}

// applyFull replaces the monitor's state with a full frame's: each metric's
// model, rings, last accepted timestamp and sanitizer state. It is the one
// way state from disk or from a peer enters a monitor, so it refuses any
// state the monitor could not have built, and checks every slot (see
// ReplMetric.check) before it changes anything. The frame's samples are
// then pushed into the monitor's own rings, cleared under the shard lock,
// so installing a frame allocates no ring storage. Ring capacities follow
// the monitor's configuration, not the frame's: a monitor with a smaller
// RingCapacity keeps only the newest samples.
func (m *Monitor) applyFull(d *ReplDelta) error {
	if d.Component != m.component {
		return fmt.Errorf("frame is for component %q, monitor is %q", d.Component, m.component)
	}
	var models [metric.NumKinds]*markov.Predictor
	for i, k := range metric.Kinds {
		p, err := d.Metrics[i].check()
		if err != nil {
			return fmt.Errorf("%s: %v", k, err)
		}
		models[i] = p
	}
	for i, k := range metric.Kinds {
		s := &d.Metrics[i]
		sh := &m.shards[k]
		sh.mu.Lock()
		sh.model = models[i]
		sh.samples.Clear()
		sh.errs.Clear()
		for j := range s.Runs {
			r := &s.Runs[j]
			for x := range r.n() {
				t := r.T0 + int64(x)
				sh.samples.Push(t, r.value(x))
				sh.errs.Push(t, bitsAt(r.E, x))
			}
		}
		sh.lastT, sh.hasLast = 0, s.HasLast
		if sh.hasLast {
			sh.lastT = s.LastT
		}
		sh.sanitizer.SetState(s.Sanitizer)
		sh.mu.Unlock()
	}
	return nil
}

// check validates one metric of a full frame and returns its model. It
// enforces the history Observe maintains and deltaInto's binary search
// relies on: the runs are valid (checkRuns) and LastT is present and equal
// to the newest sample whenever there are samples. Without these a restored
// monitor could accept a sample older than its newest.
func (s *ReplMetric) check() (*markov.Predictor, error) {
	if err := checkRuns(s.Runs, 0, false, true); err != nil {
		return nil, err
	}
	if n := len(s.Runs); n > 0 && (!s.HasLast || s.LastT != s.Runs[n-1].last()) {
		return nil, fmt.Errorf("last_t does not match its newest sample t=%d", s.Runs[n-1].last())
	}
	p, err := markov.FromSnapshot(s.Model)
	if err != nil {
		return nil, fmt.Errorf("model: %v", err)
	}
	return p, nil
}

// checkRuns reports why one metric's runs could not replay through Observe
// on a shard whose last accepted timestamp is base (none when !haveBase),
// or, withErrs, be installed as a full frame's rings, whose runs carry one
// finite prediction error per value.
func checkRuns(runs []ReplRun, base int64, haveBase, withErrs bool) error {
	end, haveEnd := base, haveBase
	for i := range runs {
		r := &runs[i]
		n := r.n()
		switch {
		case len(r.V) == 0 || len(r.V)%8 != 0:
			return fmt.Errorf("run at t0=%d carries %d value bytes, not a positive multiple of 8", r.T0, len(r.V))
		case withErrs && len(r.E) != len(r.V):
			return fmt.Errorf("run at t0=%d carries %d error bytes for %d value bytes", r.T0, len(r.E), len(r.V))
		case r.T0 > math.MaxInt64-int64(n-1):
			return fmt.Errorf("run at t0=%d of %d samples overflows the timestamp", r.T0, n)
		case haveEnd && r.T0 <= end:
			return fmt.Errorf("run at t0=%d does not start after t=%d", r.T0, end)
		}
		for j := range n {
			if v := r.value(j); !isFinite(v) {
				return fmt.Errorf("%w: %v at t=%d", ErrBadSample, v, r.T0+int64(j))
			}
			if withErrs {
				if e := bitsAt(r.E, j); !isFinite(e) {
					return fmt.Errorf("%w: prediction error %v at t=%d", ErrBadSample, e, r.T0+int64(j))
				}
			}
		}
		end, haveEnd = r.last(), true
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
