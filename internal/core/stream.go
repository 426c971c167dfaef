package core

// The streaming selection engine is gone: selection runs once, on demand,
// when an SLO violation asks for it (DESIGN §16). What remains here is the
// compile surface the benchmark harness still reads; ROADMAP item 13(a)
// deletes it together with the harness's streaming pass.

// StreamingStats is the shape of the deleted streaming engine's telemetry.
// Every value is zero.
//
// Deprecated: kept only so the benchmark harness compiles; ROADMAP item
// 13(a) removes it.
type StreamingStats struct {
	Bytes    int64
	Colds    uint64
	MemoHits uint64
}

// Merge folds other into s.
func (s *StreamingStats) Merge(other StreamingStats) {
	s.Bytes += other.Bytes
	s.Colds += other.Colds
	s.MemoHits += other.MemoHits
}

// StreamingStats returns the zero value.
//
// Deprecated: kept only so the benchmark harness compiles; ROADMAP item
// 13(a) removes it.
func (m *Monitor) StreamingStats() StreamingStats { return StreamingStats{} }
