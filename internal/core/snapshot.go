package core

// MonitorSnapshot, Snapshot and Restore have no caller but benchmark/'s
// layer timings (no other code uses them): a monitor's state moves as a full
// frame (fullInto, applyFull). The next change to benchmark/ deletes this
// file and snapshot_test.go.
type MonitorSnapshot struct {
	frame ReplDelta
	LastT map[string]int64 // the frame's floors
}

// Snapshot captures the monitor's full frame.
func (m *Monitor) Snapshot() *MonitorSnapshot {
	s := new(MonitorSnapshot)
	s.LastT = m.fullInto(&s.frame)
	return s
}

// Restore applies a snapshot's full frame.
func (m *Monitor) Restore(s *MonitorSnapshot) error { return m.ApplyDelta(&s.frame) }
