package core

import (
	"fmt"
	"strings"

	"fchain/internal/obs"
)

// LatencyHist is the log2-bucketed nanosecond histogram inside PoolStats,
// the registry's histogram layout (obs.LatencyHist).
type LatencyHist = obs.LatencyHist

// PoolStats reports how the analysis engine spent its time on one localize
// call: the worker pool shape plus per-phase latency histograms. Select
// observations are per (component, metric) analysis task; Diagnose
// observations cover each integrated-diagnosis pass (adaptive look-back
// retries record one observation per pass).
type PoolStats struct {
	// Workers is the worker pool size the analysis ran with (1 = serial).
	Workers int `json:"workers"`
	// Tasks is the number of per-metric selection tasks executed.
	Tasks int `json:"tasks"`
	// Select is the latency histogram of the abnormal change point
	// selection tasks.
	Select LatencyHist `json:"select,omitzero"`
	// Diagnose is the latency histogram of the integrated diagnosis passes.
	Diagnose LatencyHist `json:"diagnose,omitzero"`
	// Panics counts selection tasks whose kernel panicked and whose
	// stream was quarantined instead of taking the process down.
	Panics int `json:"panics,omitempty"`
	// FirstPanic is what the first of those kernels panicked with, in
	// (component, metric) order.
	FirstPanic string `json:"first_panic,omitempty"`
}

// Merge folds another PoolStats into s, keeping the larger pool shape.
func (s *PoolStats) Merge(o PoolStats) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Tasks += o.Tasks
	s.Select.Merge(o.Select)
	s.Diagnose.Merge(o.Diagnose)
	s.Panics += o.Panics
	if s.FirstPanic == "" {
		s.FirstPanic = o.FirstPanic
	}
}

// notePanic counts one quarantined kernel panic, keeping the first message.
func (s *PoolStats) notePanic(msg string) {
	s.Panics++
	if s.FirstPanic == "" {
		s.FirstPanic = msg
	}
}

// String renders a compact summary for CLI status lines.
func (s PoolStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d tasks=%d", s.Workers, s.Tasks)
	if s.Select.Count > 0 {
		fmt.Fprintf(&b, " select[%s]", s.Select)
	}
	if s.Diagnose.Count > 0 {
		fmt.Fprintf(&b, " diagnose[%s]", s.Diagnose)
	}
	if s.Panics > 0 {
		fmt.Fprintf(&b, " panics=%d", s.Panics)
	}
	return b.String()
}
