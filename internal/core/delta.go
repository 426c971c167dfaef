package core

// Replication deltas for warm-standby owners. A primary slave ships each
// component's state to its standby on a batched interval; rather than
// re-serializing the component's whole state every tick, the steady-state
// frame carries only the samples observed since the previous ship, as runs
// of consecutive seconds whose values travel as raw IEEE-754 bits, and the
// standby replays them through its shadow monitor's strict Observe path.
// Monitor state is a pure function of the observed sample sequence plus the
// config (the same invariant the checkpoint-restore and handoff paths
// already rely on), so replay reproduces the primary's model, ring, and
// streaming state byte-identically — there is no separate "apply a model
// diff" code path to keep in sync with Observe.
//
// The incremental path is only sound while the primary's bounded ring still
// retains every sample past the shipped floor. Eviction past the floor, a
// gap sever (Clear), or a brand-new metric all force a full frame, which
// carries every metric's model, last timestamp and both rings, the rings as
// the same runs of bits; the standby likewise rejects any delta whose Base
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
// an incremental delta whose Base precondition does not match the shadow's
// state (samples are missing between the two, so replay would silently
// diverge), or a malformed or undecodable frame. The primary resolves it by
// shipping a full frame.
var ErrReplGap = errors.New("core: replication gap")

// ReplRun is a run of samples at consecutive timestamps T0, T0+1, … inside
// a delta. V holds each value's IEEE-754 bits, little-endian, 8 bytes per
// sample, which the wire encoding (replwire.go) carries as they are: a value
// crosses the wire bit-exact and is neither formatted nor parsed as a
// decimal.
type ReplRun struct {
	T0 int64
	V  []byte
}

// n returns the number of samples in the run.
func (r *ReplRun) n() int { return len(r.V) / 8 }

// last returns the run's last timestamp.
func (r *ReplRun) last() int64 { return r.T0 + int64(r.n()) - 1 }

// value returns the run's i-th value.
func (r *ReplRun) value(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.V[8*i:]))
}

// ReplDelta is one replication frame's payload, in one of two shapes. A full
// frame (first ship, or recovery after a gap) carries every metric's
// complete state in Full. An incremental frame carries Base+Samples, a
// sample replay: Base records, per metric name, the primary's last-shipped
// timestamp — the precondition the standby's shadow must match before
// replaying Samples; metrics the primary has never observed are absent from
// Base. Sanitizers carries the primary's sanitizer state as of the same
// instant in either shape: replay goes through Observe, which never feeds
// the shadow's own sanitizers. AppendBinary and DecodeDelta (replwire.go)
// carry it on the wire.
type ReplDelta struct {
	Component  string
	Full       []ReplMetric
	Base       map[string]int64
	Samples    map[string][]ReplRun
	Sanitizers map[string]ingest.State
}

// ReplMetric is one metric's complete state inside a full frame: its Markov
// model, its last accepted timestamp (absent if it never accepted one), and
// its retained sample and prediction-error rings, oldest first, as runs.
type ReplMetric struct {
	Metric  string
	Model   *markov.Snapshot
	LastT   *int64
	Samples []ReplRun
	Errs    []ReplRun
}

// FullCause says why FrameInto built a full frame rather than an
// incremental one.
type FullCause string

const (
	// FullFirst: the caller holds no floors, so nothing has been shipped
	// since it last forgot them.
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
	// FrameInto then reports as FullFirst: the standby refused a frame, or
	// a placement change reset the channel.
	FullNAK   FullCause = "nak"
	FullReset FullCause = "reset"
)

// FrameInto fills d with the frame that brings a standby holding this
// monitor's samples up to floors level with it: an incremental delta while
// DeltaInto's path is sound, a full frame otherwise. changed=false means
// there is nothing to send. d's buffers are reused across calls.
//
// For a full frame FrameInto returns the floors the frame establishes, to
// replace the caller's once the frame is handed to the transport, and why
// the frame is full; for an incremental one it returns nil and "", and the
// caller moves its floors with AdvanceFloors after the send.
func (m *Monitor) FrameInto(d *ReplDelta, floors map[string]int64) (full map[string]int64, cause FullCause, changed bool) {
	changed, cause = m.deltaInto(d, floors)
	if cause == "" {
		return nil, "", changed
	}
	return m.fullInto(d), cause, true
}

// fullInto fills d with a full frame, reading each metric's state under its
// shard lock, and returns the frame's floors: each metric's last accepted
// timestamp.
func (m *Monitor) fullInto(d *ReplDelta) map[string]int64 {
	d.Component = m.component
	clear(d.Base)
	clear(d.Samples)
	floors := make(map[string]int64, metric.NumKinds)
	d.Full = make([]ReplMetric, metric.NumKinds)
	for i, k := range metric.Kinds {
		name := k.String()
		f := &d.Full[i]
		sh := &m.shards[k]
		sh.mu.Lock()
		d.setSanitizer(name, sh.sanitizer.State())
		f.Metric = name
		f.Model = sh.model.Snapshot()
		if sh.hasLast {
			last := sh.lastT
			f.LastT = &last
			floors[name] = last
		}
		f.Samples = appendRuns(nil, sh.samples, 0)
		f.Errs = appendRuns(nil, sh.errs, 0)
		sh.mu.Unlock()
	}
	return floors
}

// setSanitizer records one metric's sanitizer state in d, omitting a fresh
// one.
func (d *ReplDelta) setSanitizer(name string, st ingest.State) {
	if st == (ingest.State{}) {
		delete(d.Sanitizers, name)
		return
	}
	if d.Sanitizers == nil {
		d.Sanitizers = make(map[string]ingest.State, metric.NumKinds)
	}
	d.Sanitizers[name] = st
}

// appendRuns appends ring's samples from the from-th on to runs, a run per
// stretch of consecutive timestamps, reusing the runs and value buffers in
// runs' spare capacity; a buffer that must grow is sized for every sample
// left. The caller holds the ring's shard lock.
func appendRuns(runs []ReplRun, ring *timeseries.Ring, from int) []ReplRun {
	var cur *ReplRun
	for i := from; i < ring.Len(); i++ {
		t, v := ring.At(i)
		if cur == nil || t != cur.last()+1 {
			runs = slices.Grow(runs, 1)[:len(runs)+1]
			cur = &runs[len(runs)-1]
			cur.T0, cur.V = t, slices.Grow(cur.V[:0], 8*(ring.Len()-i))
		}
		cur.V = binary.LittleEndian.AppendUint64(cur.V, math.Float64bits(v))
	}
	return runs
}

// DeltaInto fills d with the samples observed since floors (metric name →
// last shipped timestamp, as maintained by the caller from previous deltas)
// and reports whether anything new was extracted. ok=false means the
// incremental path is unsound — nil floors (nothing shipped yet), a metric
// that gained its first samples since the last ship, a gap sever, or ring
// eviction past the floor — and the caller must ship a full frame instead
// (FrameInto does both). d's maps and slices are reused across calls, so
// steady-state extraction allocates nothing (see the alloc guard test).
//
// DeltaInto does not advance floors; the caller advances them only after the
// frame is handed to the transport, so a failed send re-extracts the same
// samples next tick.
func (m *Monitor) DeltaInto(d *ReplDelta, floors map[string]int64) (changed, ok bool) {
	changed, cause := m.deltaInto(d, floors)
	return changed, cause == ""
}

// deltaInto is DeltaInto, naming why the incremental path is unsound instead
// of reporting ok=false; "" means it is sound.
func (m *Monitor) deltaInto(d *ReplDelta, floors map[string]int64) (changed bool, cause FullCause) {
	if floors == nil {
		return false, FullFirst
	}
	d.Component = m.component
	// A full frame's ring-sized buffers are not kept once the channel is
	// back on the incremental path: a standby resync is rare, and they would
	// stay resident beside the monitors.
	d.Full = nil
	if d.Base == nil {
		d.Base = make(map[string]int64, metric.NumKinds)
	}
	if d.Samples == nil {
		d.Samples = make(map[string][]ReplRun, metric.NumKinds)
	}
	for _, k := range metric.Kinds {
		name := k.String()
		sh := &m.shards[k]
		sh.mu.Lock()
		d.setSanitizer(name, sh.sanitizer.State())
		floor, haveFloor := floors[name]
		if !sh.hasLast {
			sh.mu.Unlock()
			if haveFloor {
				// The shadow holds samples for a metric we no longer have any
				// state for; only a full snapshot can reconcile that.
				return false, FullSever
			}
			delete(d.Base, name)
			d.Samples[name] = d.Samples[name][:0]
			continue
		}
		if !haveFloor {
			sh.mu.Unlock()
			return false, FullNewMetric
		}
		if sh.lastT < floor {
			sh.mu.Unlock()
			return false, FullSever
		}
		if sh.lastT == floor {
			d.Base[name] = floor
			d.Samples[name] = d.Samples[name][:0]
			sh.mu.Unlock()
			continue
		}
		ring := sh.samples
		n := ring.Len()
		if n == 0 || ring.First() > floor {
			// Eviction or a gap sever dropped samples past the floor; the
			// replay sequence is broken. A ring evicts only once it is full,
			// so a ring with room left lost its samples to a sever.
			cause := FullSever
			if n == ring.Cap() {
				cause = FullEviction
			}
			sh.mu.Unlock()
			return false, cause
		}
		// Binary search for the first retained sample newer than the floor
		// (timestamps are strictly ascending within a ring).
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if t, _ := ring.At(mid); t <= floor {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// Runs and their value buffers are reused from the previous call;
		// a timestamp jump (a restored gap, or the strict path) opens a run.
		d.Samples[name] = appendRuns(d.Samples[name][:0], ring, lo)
		d.Base[name] = floor
		changed = true
		sh.mu.Unlock()
	}
	return changed, ""
}

// AdvanceFloors moves each metric's floor to the last timestamp the
// incremental frame d ships for it: the primary's bookkeeping once the frame
// is handed to the transport. Metrics d ships nothing for keep their floors.
func (d *ReplDelta) AdvanceFloors(floors map[string]int64) {
	for name, runs := range d.Samples {
		if len(runs) > 0 {
			floors[name] = runs[len(runs)-1].last()
		}
	}
}

// ApplyDelta applies one replication frame to this (shadow) monitor. A full
// frame's runs are checked and its rings rebuilt, and the state replaces the
// shadow's wholesale through Restore, which validates the rest. An
// incremental frame is checked whole before anything is mutated: every
// metric's Base precondition against the shadow's last accepted timestamps,
// and every run (whole 8-byte values, at least one, finite, no timestamp
// overflow, each starting past the previous run's end and past Base). Any
// failure leaves the shadow untouched; a malformed or mismatched frame is
// refused with ErrReplGap. Otherwise the samples replay through the strict
// Observe path, which reproduces the primary's post-ship state exactly.
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
	if len(d.Full) > 0 {
		return m.applyFull(d)
	}
	for _, k := range metric.Kinds {
		name := k.String()
		sh := &m.shards[k]
		sh.mu.Lock()
		has, last := sh.hasLast, sh.lastT
		sh.mu.Unlock()
		base, haveBase := d.Base[name]
		if haveBase != has || (haveBase && base != last) {
			return fmt.Errorf("%w: %s shadow at t=%d (present=%v), delta base t=%d (present=%v)",
				ErrReplGap, name, last, has, base, haveBase)
		}
		if err := checkRuns(d.Samples[name], base, haveBase); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrReplGap, name, err)
		}
	}
	for _, k := range metric.Kinds {
		name := k.String()
		for _, r := range d.Samples[name] {
			for i := range r.n() {
				if err := m.Observe(r.T0+int64(i), k, r.value(i)); err != nil {
					return fmt.Errorf("%w: replay %s: %v", ErrReplGap, k, err)
				}
			}
		}
		sh := &m.shards[k]
		sh.mu.Lock()
		sh.sanitizer.SetState(d.Sanitizers[name])
		sh.mu.Unlock()
	}
	return nil
}

// applyFull checks a full frame's runs, rebuilds its rings and restores the
// result. Restore refuses an unknown metric, an invalid model, error times
// that differ from the sample times, and a last_t that is not the newest
// sample's.
func (m *Monitor) applyFull(d *ReplDelta) error {
	if len(d.Base) > 0 || len(d.Samples) > 0 {
		return fmt.Errorf("%w: frame carries both a full state and incremental samples", ErrReplGap)
	}
	s := &MonitorSnapshot{
		Component:  d.Component,
		Models:     make(map[string]*markov.Snapshot, len(d.Full)),
		Samples:    make(map[string]timeseries.RingSnapshot, len(d.Full)),
		Errs:       make(map[string]timeseries.RingSnapshot, len(d.Full)),
		LastT:      make(map[string]int64, len(d.Full)),
		Sanitizers: d.Sanitizers,
	}
	for i := range d.Full {
		f := &d.Full[i]
		if _, dup := s.Models[f.Metric]; dup {
			return fmt.Errorf("%w: %s appears twice", ErrReplGap, f.Metric)
		}
		samples, err := ringOf(f.Samples)
		if err != nil {
			return fmt.Errorf("%w: %s samples: %v", ErrReplGap, f.Metric, err)
		}
		errs, err := ringOf(f.Errs)
		if err != nil {
			return fmt.Errorf("%w: %s errors: %v", ErrReplGap, f.Metric, err)
		}
		s.Models[f.Metric] = f.Model
		s.Samples[f.Metric], s.Errs[f.Metric] = samples, errs
		if f.LastT != nil {
			s.LastT[f.Metric] = *f.LastT
		}
	}
	if err := m.Restore(s); err != nil {
		return fmt.Errorf("%w: %v", ErrReplGap, err)
	}
	return nil
}

// ringOf checks one ring's runs and expands them into the ring's snapshot.
func ringOf(runs []ReplRun) (timeseries.RingSnapshot, error) {
	if err := checkRuns(runs, 0, false); err != nil {
		return timeseries.RingSnapshot{}, err
	}
	n := 0
	for i := range runs {
		n += runs[i].n()
	}
	r := timeseries.RingSnapshot{Times: make([]int64, 0, n), Vals: make([]float64, 0, n)}
	for i := range runs {
		for j := range runs[i].n() {
			r.Times = append(r.Times, runs[i].T0+int64(j))
			r.Vals = append(r.Vals, runs[i].value(j))
		}
	}
	return r, nil
}

// checkRuns reports why one metric's runs could not replay through Observe
// on a shard whose last accepted timestamp is base (none when !haveBase).
func checkRuns(runs []ReplRun, base int64, haveBase bool) error {
	end, haveEnd := base, haveBase
	for i := range runs {
		r := &runs[i]
		n := r.n()
		switch {
		case len(r.V) == 0 || len(r.V)%8 != 0:
			return fmt.Errorf("run at t0=%d carries %d value bytes, not a positive multiple of 8", r.T0, len(r.V))
		case r.T0 > math.MaxInt64-int64(n-1):
			return fmt.Errorf("run at t0=%d of %d samples overflows the timestamp", r.T0, n)
		case haveEnd && r.T0 <= end:
			return fmt.Errorf("run at t0=%d does not start after t=%d", r.T0, end)
		}
		for j := range n {
			if v := r.value(j); math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: %v at t=%d", ErrBadSample, v, r.T0+int64(j))
			}
		}
		end, haveEnd = r.last(), true
	}
	return nil
}
