package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"fchain/internal/metric"
)

// trainedMonitor feeds a learned periodic signal with a fault step into
// every metric.
func trainedMonitor(t *testing.T, stepAt int) *Monitor {
	t.Helper()
	m := NewMonitor("db", DefaultConfig())
	for _, k := range metric.Kinds {
		feedSeries(t, m, k, periodicWithStep(900, stepAt, 40, 0.5, int64(k)))
	}
	return m
}

func TestMonitorSnapshotRoundTrip(t *testing.T) {
	m := trainedMonitor(t, 850)
	snap := m.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded MonitorSnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	fresh := NewMonitor("db", DefaultConfig())
	if err := fresh.Restore(&decoded); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The restored monitor must produce the same analysis verdict.
	want := m.Analyze(899)
	got := fresh.Analyze(899)
	if !want.Abnormal() {
		t.Fatal("control analysis found nothing; test signal broken")
	}
	if !got.Abnormal() || got.Onset != want.Onset {
		t.Errorf("restored analysis = %+v, want onset %d", got, want.Onset)
	}
	// And its ingestion clock must carry over.
	if err := fresh.Observe(899, metric.CPU, 1); err == nil {
		t.Error("restored monitor accepted a replayed timestamp")
	}
	if err := fresh.Observe(900, metric.CPU, 1); err != nil {
		t.Errorf("restored monitor rejected an advancing sample: %v", err)
	}
}

func TestMonitorRestoreRejectsMismatch(t *testing.T) {
	m := trainedMonitor(t, -1)
	if err := NewMonitor("web", DefaultConfig()).Restore(m.Snapshot()); err == nil {
		t.Error("component mismatch accepted")
	}
	bad := m.Snapshot()
	bad.Models["bogus_metric"] = bad.Models[metric.CPU.String()]
	if err := NewMonitor("db", DefaultConfig()).Restore(bad); err == nil {
		t.Error("unknown metric name accepted")
	}
	if err := m.Restore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.ckpt")
	m := trainedMonitor(t, 850)
	if err := SaveCheckpoint(path, m.Snapshot()); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	fresh := NewMonitor("db", DefaultConfig())
	if err := fresh.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !fresh.Analyze(899).Abnormal() {
		t.Error("checkpointed state lost the fault signature")
	}
	// No temp files may linger after a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d files, want 1", len(entries))
	}
}

func TestLoadCheckpointDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.ckpt")
	if err := SaveCheckpoint(path, trainedMonitor(t, -1).Snapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Digit flip inside the payload region (after the "payload" key, so the
	// envelope's own fields stay intact): JSON stays valid, only the
	// checksum can tell.
	flipped := append([]byte(nil), raw...)
	start := bytes.Index(flipped, []byte(`"payload"`))
	if start < 0 {
		t.Fatal("no payload field in checkpoint file")
	}
	mutated := false
	for i := start; i < len(flipped); i++ {
		if flipped[i] == '7' {
			flipped[i] = '9'
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no digit to flip in payload")
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("corrupted checkpoint accepted")
	}

	// Truncated file.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("truncated checkpoint accepted")
	}

	// Wrong version.
	var f map[string]any
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	f["version"] = CheckpointVersion + 1
	bumped, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bumped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("future-version checkpoint accepted")
	}

	// Missing file surfaces an error for the caller's cold-start fallback.
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestCheckpointFormatPinned restores a checkpoint written when every ring
// slot stored its own timestamp and requires the restored monitor to write
// it back byte for byte, and to replicate across a gap exactly what that
// layout did. The fixture (RingCapacity 16) holds a metric with a time gap
// (cpu), a wrapped ring (memory), a wrapped ring that still spans a gap
// (disk_read), a sanitized stream (net_in) and two metrics that were never
// observed.
func TestCheckpointFormatPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "two_column_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap MonitorSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RingCapacity = 16
	m := NewMonitor("db", cfg)
	if err := m.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("restored snapshot re-encodes differently:\ngot  %s\nwant %s", got, raw)
	}

	floors := map[string]int64{"cpu": 103, "memory": 135, "disk_read": 127, "net_in": 117}
	var d ReplDelta
	if changed, ok := m.DeltaInto(&d, floors); !changed || !ok {
		t.Fatalf("DeltaInto changed=%v ok=%v, want true true", changed, ok)
	}
	want := map[string][]ReplRun{
		"cpu":        {bitsRun(104, 40, 40.5), bitsRun(110, 42.5, 42, 42.25, 42.5, 42, 42.25)},
		"memory":     {bitsRun(136, 61.5, 63, 64.5, 66)},
		"net_in":     {bitsRun(118, 12, 13)},
		"disk_read":  {bitsRun(128, 7, 8), bitsRun(140, 7, 8, 9, 10, 5, 6, 7, 8, 9, 10)},
		"net_out":    nil,
		"disk_write": nil,
	}
	if !reflect.DeepEqual(d.Samples, want) {
		t.Errorf("DeltaInto samples = %v, want %v", d.Samples, want)
	}
	if !reflect.DeepEqual(d.Base, floors) {
		t.Errorf("DeltaInto base = %v, want %v", d.Base, floors)
	}
	d.AdvanceFloors(floors)
	if want := map[string]int64{"cpu": 115, "memory": 139, "disk_read": 149, "net_in": 119}; !reflect.DeepEqual(floors, want) {
		t.Errorf("advanced floors = %v, want %v", floors, want)
	}
}

// assertRestoreRejects mutates a trained monitor's snapshot and requires
// Restore to refuse it without touching the target monitor.
func assertRestoreRejects(t *testing.T, mutate func(s *MonitorSnapshot)) {
	t.Helper()
	snap := trainedMonitor(t, -1).Snapshot()
	mutate(snap)
	target := NewMonitor("db", DefaultConfig())
	before, err := json.Marshal(target.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := target.Restore(snap); err == nil {
		t.Fatal("Restore accepted a history Observe could not have built")
	}
	after, err := json.Marshal(target.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("rejected Restore changed the monitor")
	}
}

func TestRestoreRejectsUnorderedSampleTimes(t *testing.T) {
	assertRestoreRejects(t, func(s *MonitorSnapshot) {
		cpu := metric.CPU.String()
		times := s.Samples[cpu].Times
		n := len(times)
		times[n-2], times[n-1] = times[n-1], times[n-2]
		copy(s.Errs[cpu].Times, times)
		s.LastT[cpu] = times[n-1]
	})
}

func TestRestoreRejectsMisalignedErrorTimes(t *testing.T) {
	assertRestoreRejects(t, func(s *MonitorSnapshot) {
		s.Errs[metric.CPU.String()].Times[0]--
	})
}

func TestRestoreRejectsStaleLastT(t *testing.T) {
	assertRestoreRejects(t, func(s *MonitorSnapshot) {
		s.LastT[metric.CPU.String()] -= 100
	})
}

func TestRestoreRejectsMissingLastT(t *testing.T) {
	assertRestoreRejects(t, func(s *MonitorSnapshot) {
		delete(s.LastT, metric.CPU.String())
	})
}

// TestCheckpointEnvelopePinned loads a checkpoint file written by an earlier
// build (version 1 envelope around the two_column_snapshot payload, ring
// capacity 16) and requires a re-save of the restored monitor to reproduce
// the file byte for byte, except for the informational saved_at stamp.
func TestCheckpointEnvelopePinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpoint(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RingCapacity = 16
	m := NewMonitor("db", cfg)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.ckpt")
	if err := SaveCheckpoint(path, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	savedAt := regexp.MustCompile(`"saved_at":\d+`)
	if g, w := savedAt.ReplaceAll(got, nil), savedAt.ReplaceAll(want, nil); !bytes.Equal(g, w) {
		t.Fatalf("re-saved checkpoint differs from the pinned file:\ngot  %s\nwant %s", g, w)
	}
}
