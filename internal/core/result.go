package core

import (
	"fmt"
	"strings"

	"fchain/internal/obs"
)

// LocalizeResult is a diagnosis plus the coverage metadata a caller needs to
// judge how much of the application the diagnosis actually saw. A master
// operating through a partition or with crashed slaves still produces a
// diagnosis from whatever reports arrive, but a partial view weakens both
// the propagation chain and the external-factor check; Degraded tells the
// caller to treat the verdict accordingly (e.g. delay auto-remediation,
// re-run once coverage recovers).
type LocalizeResult struct {
	Diagnosis Diagnosis `json:"diagnosis"`

	// SlavesAnswered / SlavesTotal count the slaves that returned reports
	// versus those the request fanned out to.
	SlavesAnswered int `json:"slaves_answered"`
	SlavesTotal    int `json:"slaves_total"`

	// ComponentsReported / ComponentsKnown count the components covered by
	// the received reports versus every component ever registered (the
	// application size used by the external-factor check).
	ComponentsReported int `json:"components_reported"`
	ComponentsKnown    int `json:"components_known"`

	// Degraded is set when any slave or component was missing from the
	// view the diagnosis ran over.
	Degraded bool `json:"degraded"`

	// Errors summarizes per-slave failures (timeouts, disconnects, open
	// circuit breakers), one entry per unanswered slave.
	Errors []string `json:"errors,omitempty"`

	// MissingComponents lists, sorted, the registered components no received
	// report covered — the concrete gap behind a Degraded verdict.
	MissingComponents []string `json:"missing_components,omitempty"`

	// Truncated is set when any component's analysis was cut short by the
	// deadline budget (at least one of its metrics was skipped).
	Truncated bool `json:"truncated,omitempty"`

	// Overloaded is set when the request was shed by admission control
	// before any analysis ran.
	Overloaded bool `json:"overloaded,omitempty"`

	// RetryAfterMS is the backoff hint attached to an overload shed (0
	// otherwise): how long the caller should wait before retrying.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	// Quarantined maps components to the metric streams skipped because a
	// previous selection kernel panic quarantined them.
	Quarantined map[string][]string `json:"quarantined_streams,omitempty"`

	// Quality maps each reporting component to the data quality of the
	// streams its report was derived from. Components fed clean, in-order
	// data score 1; the map lets a caller tell "db is the culprit" derived
	// from pristine data apart from the same verdict derived from a stream
	// that lost half its samples.
	Quality map[string]DataQuality `json:"quality,omitempty"`

	// Stats carries the analysis engine's timing counters for this call:
	// in-process localizers report per-metric selection task latencies,
	// the cluster master reports per-slave answer latencies, and both time
	// the integrated diagnosis — the latency the cluster CLI surfaces
	// alongside quality and coverage.
	Stats PoolStats `json:"stats,omitzero"`

	// Trace is the pipeline trace for this call — one span per phase, per
	// component, per metric selection, with candidate change points and
	// filter decisions as attributes. nil unless the caller enabled
	// tracing.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// MinQuality returns the lowest per-component quality confidence in the
// view (1 when no quality information was reported).
func (r LocalizeResult) MinQuality() float64 {
	min := 1.0
	for _, q := range r.Quality {
		if c := q.Confidence(); c < min {
			min = c
		}
	}
	return min
}

// Coverage returns the fraction of known components the diagnosis saw, in
// [0, 1]; a full view returns 1.
func (r LocalizeResult) Coverage() float64 {
	if r.ComponentsKnown == 0 {
		return 0
	}
	return float64(r.ComponentsReported) / float64(r.ComponentsKnown)
}

// String renders the diagnosis with its coverage, e.g.
// "culprits: db(onset=1702,source) [4/4 slaves, 4/4 components]" or a
// degraded "... [2/3 slaves, 2/4 components, DEGRADED]".
func (r LocalizeResult) String() string {
	var b strings.Builder
	b.WriteString(r.Diagnosis.String())
	fmt.Fprintf(&b, " [%d/%d slaves, %d/%d components",
		r.SlavesAnswered, r.SlavesTotal, r.ComponentsReported, r.ComponentsKnown)
	if r.Degraded {
		b.WriteString(", DEGRADED")
	}
	if r.Truncated {
		b.WriteString(", TRUNCATED")
	}
	b.WriteString("]")
	return b.String()
}
