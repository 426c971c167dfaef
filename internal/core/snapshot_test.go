package core

import (
	"testing"

	"fchain/internal/metric"
)

// TestMonitorSnapshotRoundTrip restores a monitor's in-memory snapshot into
// a fresh one, which must analyze the window to the same onset and carry the
// ingestion clock over.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	m := trainedMonitor(t, 850)
	fresh := NewMonitor("db", DefaultConfig())
	if err := fresh.Restore(m.Snapshot()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	want, got := m.Analyze(899), fresh.Analyze(899)
	if !want.Abnormal() {
		t.Fatal("control analysis found nothing; test signal broken")
	}
	if !got.Abnormal() || got.Onset != want.Onset {
		t.Errorf("restored analysis = %+v, want onset %d", got, want.Onset)
	}
	if err := fresh.Observe(899, metric.CPU, 1); err == nil {
		t.Error("restored monitor accepted a replayed timestamp")
	}
	if err := fresh.Observe(900, metric.CPU, 1); err != nil {
		t.Errorf("restored monitor rejected an advancing sample: %v", err)
	}
}
