package core

// MonitorSnapshot, Snapshot, Restore and DeltaInto have no caller but
// benchmark/'s layer timings (no other code uses them): a monitor's state
// moves as a full frame (fullInto, applyFull) and then as FrameInto's
// incremental ones. The next change to benchmark/ deletes this file and
// snapshot_test.go.
type MonitorSnapshot struct {
	frame ReplDelta
	LastT *Floors // the frame's floors
}

// Snapshot captures the monitor's full frame.
func (m *Monitor) Snapshot() *MonitorSnapshot {
	s := &MonitorSnapshot{LastT: new(Floors)}
	m.fullInto(&s.frame)
	s.frame.AdvanceFloors(s.LastT)
	return s
}

// Restore applies a snapshot's full frame.
func (m *Monitor) Restore(s *MonitorSnapshot) error { return m.ApplyDelta(&s.frame) }

// DeltaInto is FrameInto's incremental path alone: it fills d with the
// samples observed since floors and reports whether anything new was
// extracted, or ok=false where FrameInto would build a full frame.
func (m *Monitor) DeltaInto(d *ReplDelta, floors *Floors) (changed, ok bool) {
	changed, cause := m.deltaInto(d, floors)
	return changed, cause == ""
}
