package core

import (
	"fmt"
	"slices"

	"fchain/internal/ingest"
	"fchain/internal/markov"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// MonitorSnapshot is the complete serializable state of a Monitor: the
// learned prediction model, the retained sample and prediction-error tails,
// the last accepted timestamp per metric, and the ingest sanitizers' running
// state. A slave checkpoints these so a crashed-and-restarted daemon resumes
// localization-ready instead of spending the whole self-calibration history
// relearning normal fluctuation.
//
// Maps are keyed by metric.Kind.String() so checkpoints stay readable and
// stable across reorderings of the Kind constants. Sanitizers lists only
// streams that were ever fed through Ingest; a checkpoint written before the
// field existed restores with fresh sanitizers.
type MonitorSnapshot struct {
	Component  string                             `json:"component"`
	Models     map[string]*markov.Snapshot        `json:"models"`
	Samples    map[string]timeseries.RingSnapshot `json:"samples"`
	Errs       map[string]timeseries.RingSnapshot `json:"errs"`
	LastT      map[string]int64                   `json:"last_t,omitempty"`
	Sanitizers map[string]ingest.State            `json:"sanitizers,omitempty"`
}

// Snapshot captures the monitor's current state. The snapshot shares no
// storage with the monitor.
func (m *Monitor) Snapshot() *MonitorSnapshot {
	s := &MonitorSnapshot{
		Component: m.component,
		Models:    make(map[string]*markov.Snapshot, metric.NumKinds),
		Samples:   make(map[string]timeseries.RingSnapshot, metric.NumKinds),
		Errs:      make(map[string]timeseries.RingSnapshot, metric.NumKinds),
		LastT:     make(map[string]int64, metric.NumKinds),
	}
	for _, k := range metric.Kinds {
		name := k.String()
		sh := &m.shards[k]
		sh.mu.Lock()
		s.Models[name] = sh.model.Snapshot()
		s.Samples[name] = sh.samples.Snapshot()
		s.Errs[name] = sh.errs.Snapshot()
		if sh.hasLast {
			s.LastT[name] = sh.lastT
		}
		if st := sh.sanitizer.State(); st != (ingest.State{}) {
			if s.Sanitizers == nil {
				s.Sanitizers = make(map[string]ingest.State, metric.NumKinds)
			}
			s.Sanitizers[name] = st
		}
		sh.mu.Unlock()
	}
	return s
}

// Restore replaces the monitor's per-metric state with the snapshot's,
// validating every piece; on error the monitor is left unchanged. Metrics
// absent from the snapshot keep their fresh state. Restore is the one way
// state from a peer or from disk enters a monitor, so it also refuses any
// history Observe could not have built (see checkHistory). Ring capacities
// follow the monitor's current configuration, not the snapshot's: a restart
// with a smaller RingCapacity keeps only the newest retained samples.
func (m *Monitor) Restore(s *MonitorSnapshot) error {
	if s == nil {
		return fmt.Errorf("core: nil monitor snapshot")
	}
	if s.Component != m.component {
		return fmt.Errorf("core: snapshot is for component %q, monitor is %q", s.Component, m.component)
	}
	for _, k := range metric.Kinds {
		if err := s.checkHistory(k.String()); err != nil {
			return err
		}
	}
	models := make(map[metric.Kind]*markov.Predictor, len(s.Models))
	for name, snap := range s.Models {
		k, err := metric.ParseKind(name)
		if err != nil {
			return fmt.Errorf("core: snapshot model: %w", err)
		}
		p, err := markov.FromSnapshot(snap)
		if err != nil {
			return fmt.Errorf("core: snapshot model %s: %w", name, err)
		}
		models[k] = p
	}
	restoreRings := func(src map[string]timeseries.RingSnapshot, what string) (map[metric.Kind]*timeseries.Ring, error) {
		out := make(map[metric.Kind]*timeseries.Ring, len(src))
		for name, snap := range src {
			k, err := metric.ParseKind(name)
			if err != nil {
				return nil, fmt.Errorf("core: snapshot %s ring: %w", what, err)
			}
			snap.Cap = m.cfg.RingCapacity
			r, err := timeseries.RingFromSnapshot(snap)
			if err != nil {
				return nil, fmt.Errorf("core: snapshot %s ring %s: %w", what, name, err)
			}
			out[k] = r
		}
		return out, nil
	}
	samples, err := restoreRings(s.Samples, "sample")
	if err != nil {
		return err
	}
	errRings, err := restoreRings(s.Errs, "error")
	if err != nil {
		return err
	}
	lastT := make(map[metric.Kind]int64, len(s.LastT))
	for name, t := range s.LastT {
		k, err := metric.ParseKind(name)
		if err != nil {
			return fmt.Errorf("core: snapshot last_t: %w", err)
		}
		lastT[k] = t
	}
	for k, p := range models {
		sh := &m.shards[k]
		sh.mu.Lock()
		sh.model = p
		// The sanitizer follows its model: a stream absent from Sanitizers was
		// never ingested (or predates the field) and restarts fresh.
		sh.sanitizer.SetState(s.Sanitizers[k.String()])
		sh.mu.Unlock()
	}
	for k, r := range samples {
		sh := &m.shards[k]
		sh.mu.Lock()
		sh.samples = r
		// checkHistory admits last_t only beside the rings, and a metric
		// with rings but no last_t was never observed: a restored metric
		// keeps no last timestamp of the monitor's own.
		sh.lastT, sh.hasLast = 0, false
		if t, ok := lastT[k]; ok {
			sh.lastT, sh.hasLast = t, true
		}
		sh.mu.Unlock()
	}
	for k, r := range errRings {
		sh := &m.shards[k]
		sh.mu.Lock()
		sh.errs = r
		sh.mu.Unlock()
	}
	// Rebuild streaming state from the restored rings. The rebuild is a pure
	// function of the retained samples, so a restarted daemon's streaming
	// state — and therefore its analysis output — matches what any other
	// process restoring the same checkpoint computes.
	for _, k := range metric.Kinds {
		sh := &m.shards[k]
		sh.mu.Lock()
		if sh.stream != nil {
			sh.stream.rebuild(sh)
		}
		sh.mu.Unlock()
	}
	return nil
}

// checkHistory enforces, for metric name, the ordering Observe maintains and
// DeltaInto's binary search relies on: the sample ring's times strictly
// ascend, the error ring holds exactly the same times, and last_t is present
// and equals the newest time whenever the ring is non-empty. Without it a
// restored monitor could accept a sample older than its newest. A metric the
// snapshot names at all must carry both rings, or the monitor would keep a
// ring of its own beside the snapshot's last_t.
func (s *MonitorSnapshot) checkHistory(name string) error {
	samples, haveSamples := s.Samples[name]
	errs, haveErrs := s.Errs[name]
	last, haveLast := s.LastT[name]
	if !haveSamples && !haveErrs && !haveLast {
		return nil
	}
	if !haveSamples || !haveErrs {
		return fmt.Errorf("core: snapshot %s lacks its sample or error ring", name)
	}
	times := samples.Times
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return fmt.Errorf("core: snapshot %s sample times do not ascend at t=%d", name, times[i])
		}
	}
	if !slices.Equal(errs.Times, times) {
		return fmt.Errorf("core: snapshot %s error ring times differ from its sample times", name)
	}
	if n := len(times); n > 0 && (!haveLast || last != times[n-1]) {
		return fmt.Errorf("core: snapshot %s last_t does not match its newest sample t=%d", name, times[n-1])
	}
	return nil
}
