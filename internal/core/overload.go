package core

import (
	"sync/atomic"
	"time"

	"fchain/internal/metric"
)

// This file implements the engine's overload model: deadline-budgeted
// selection tasks and panic quarantine for poisoned metric streams.
//
// Deadline budgeting: a master under a tight Localize deadline forwards the
// remaining budget to each slave, and the slave analyzes against it instead
// of blowing through it. One rule decides each (component, metric) task: it
// runs in full unless the deadline has already passed when it starts, and
// then it is skipped. Nothing is calibrated: a task costs microseconds, so
// there is no cheaper kernel worth falling back to. A report with a skipped
// metric is marked Truncated and still feeds the diagnosis: the paper's
// online goal is a verdict seconds after the violation, and a partial answer
// on time beats a complete one too late.
//
// Panic quarantine: every selection kernel runs under recover(). A stream
// whose kernel panics (corrupted history, pathological input) is
// quarantined: skipped with a quality flag for QuarantineCooldown, then
// auto-probed once — a clean probe re-admits it, another panic re-trips the
// quarantine. One poisoned series therefore costs its own stream, never the
// daemon.

// pastDeadline reports whether a task starting at t0 is skipped: a non-zero
// deadline has already passed. A zero deadline never skips.
func pastDeadline(deadline, t0 time.Time) bool {
	return !deadline.IsZero() && !t0.Before(deadline)
}

// defaultQuarantineCooldown is how long a panicked stream stays quarantined
// before the engine probes it for re-admission (Config.QuarantineCooldown
// overrides it).
const defaultQuarantineCooldown = 30 * time.Second

// tripQuarantine marks metric k's stream quarantined after a selection
// panic. The stream is skipped until the cooldown elapses, then probed.
func (m *Monitor) tripQuarantine(k metric.Kind) {
	sh := m.shard(k)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	sh.quarantined = true
	sh.quarantinedAt = time.Now()
	sh.mu.Unlock()
}

// quarantineBlocked reports whether metric k's stream should be skipped.
// Once the cooldown has elapsed the quarantine half-opens: the flag clears
// and the caller runs the stream as a probe — a clean pass re-admits it for
// good, another panic re-trips the quarantine.
func (m *Monitor) quarantineBlocked(k metric.Kind, cooldown time.Duration) bool {
	sh := m.shard(k)
	if sh == nil {
		return false
	}
	if cooldown <= 0 {
		cooldown = defaultQuarantineCooldown
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.quarantined {
		return false
	}
	if time.Since(sh.quarantinedAt) >= cooldown {
		sh.quarantined = false // half-open: this analysis probes the stream
		return false
	}
	return true
}

// analyzeHook, when set, runs at the start of every selection task. It
// exists for fault-injection tests: a hook that panics for a chosen
// (component, metric) exercises the quarantine machinery end to end.
var analyzeHook atomic.Pointer[func(component string, k metric.Kind)]

// SetAnalyzeHook installs (or, with nil, removes) the selection task hook.
// Test-only fault injection; the idle cost is one atomic load per task.
func SetAnalyzeHook(fn func(component string, k metric.Kind)) {
	if fn == nil {
		analyzeHook.Store(nil)
		return
	}
	analyzeHook.Store(&fn)
}
