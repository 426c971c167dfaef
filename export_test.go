package fchain

import "fchain/internal/core"

// The sanitizing ingest path, data quality, the analysis stage alone and
// the diagnosis stage alone, which the daemons reach through internal/cluster;
// this package's tests drive them through the facade.

// Ingest feeds one sample through the sanitizing path: out-of-order
// samples are buffered and reordered, duplicates and non-finite values
// dropped, magnitude outliers clamped, short gaps interpolated and long
// gaps marked so stale model state is discarded. Every repair is counted
// and surfaced as the component's DataQuality.
func (l *Localizer) Ingest(component string, t int64, k Kind, v float64) error {
	return l.inner.Ingest(component, t, k, v)
}

// Quality returns each component's accumulated data quality over the
// sanitizing ingest path. Components fed only via Observe score 1.
func (l *Localizer) Quality() map[string]DataQuality { return l.inner.Quality() }

// AnalyzeInto returns every component's abnormal change point report for
// the look-back window ending at tv, without the diagnosis step, appending
// into dst (reset to length 0 first).
func (l *Localizer) AnalyzeInto(dst []ComponentReport, tv int64) []ComponentReport {
	return l.inner.AnalyzeInto(dst, tv)
}

// Diagnose runs only the master-side integrated diagnosis over
// already-computed component reports (as the distributed master does).
// totalComponents is the application's component count.
func Diagnose(reports []ComponentReport, totalComponents int, deps *DependencyGraph, cfg Config) Diagnosis {
	return core.Diagnose(reports, totalComponents, deps, cfg)
}
