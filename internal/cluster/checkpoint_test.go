package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/core"
	"fchain/internal/metric"
)

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("{not a checkpoint"), 0o644)
}

// TestSlaveRestartRestoresCheckpoints is the kill-and-restart acceptance
// path: every slave is fed the scenario, checkpointed, destroyed, and
// replaced by a fresh process-equivalent that restores purely from disk.
// The restarted cluster must localize the same culprit at the same onset as
// the uninterrupted control cluster.
func TestSlaveRestartRestoresCheckpoints(t *testing.T) {
	sim, tv, deps := faultScenario(t, 5)

	// Control: no restart.
	control, _ := startCluster(t, sim, tv, deps)
	want, err := control.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	if names := want.Diagnosis.CulpritNames(); len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("control diagnosis = %v, want [db]", names)
	}

	// Crash/restart run against a fresh master.
	master := NewMaster(core.Config{}, deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	ckptRoot := t.TempDir()
	var restarted []*Slave
	for _, comp := range sim.Components() {
		dir := filepath.Join(ckptRoot, comp)
		first := NewSlave("host-"+comp, []string{comp}, core.Config{}, WithCheckpointDir(dir))
		for _, k := range metric.Kinds {
			series, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < series.Len() && series.TimeAt(i) <= tv; i++ {
				if err := first.Observe(comp, series.TimeAt(i), k, series.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Close writes the final checkpoint; the slave is then "killed".
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}

		// Restart: a brand-new slave with no samples fed, restoring models
		// and ring tails purely from the checkpoint directory.
		second := NewSlave("host-"+comp, []string{comp}, core.Config{}, WithCheckpointDir(dir))
		if got := second.RestoredComponents(); len(got) != 1 || got[0] != comp {
			t.Fatalf("slave for %s restored %v, want [%s]", comp, got, comp)
		}
		if err := second.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { second.Close() })
		restarted = append(restarted, second)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(master.Slaves()) < len(restarted) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	got, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatal(err)
	}
	names := got.Diagnosis.CulpritNames()
	if len(names) != 1 || names[0] != apps.DB {
		t.Fatalf("restarted diagnosis = %v, want [db]", names)
	}
	// Restored state is byte-equivalent to the pre-crash state, so the
	// analysis must reproduce the control onset exactly, not approximately.
	if got.Diagnosis.Culprits[0].Onset != want.Diagnosis.Culprits[0].Onset {
		t.Errorf("restarted onset = %d, control onset = %d",
			got.Diagnosis.Culprits[0].Onset, want.Diagnosis.Culprits[0].Onset)
	}
}

// TestCorruptCheckpointColdStarts verifies that an unusable checkpoint is
// skipped (cold start) instead of wedging the slave.
func TestCorruptCheckpointColdStarts(t *testing.T) {
	dir := t.TempDir()
	first := NewSlave("h", []string{apps.DB}, core.Config{}, WithCheckpointDir(dir))
	for i := int64(0); i < 50; i++ {
		if err := first.Observe(apps.DB, i, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the checkpoint wholesale.
	path := first.checkpointPath(apps.DB)
	if err := writeGarbage(path); err != nil {
		t.Fatal(err)
	}
	second := NewSlave("h", []string{apps.DB}, core.Config{}, WithCheckpointDir(dir))
	defer second.Close()
	if got := second.RestoredComponents(); len(got) != 0 {
		t.Errorf("corrupted checkpoint restored: %v", got)
	}
	// The cold-started slave must still accept samples and analyze.
	if err := second.Observe(apps.DB, 100, metric.CPU, 50); err != nil {
		t.Fatal(err)
	}
	second.Analyze(100)
}

// TestRestoredComponentsSorted requires construction-time restores to be
// reported sorted and once each, whatever order (or repetition) the
// component list arrives in; a component with no checkpoint is absent.
func TestRestoredComponentsSorted(t *testing.T) {
	dir := t.TempDir()
	comps := []string{"web", "db", "app2", "app1"}
	first := NewSlave("h", comps, core.Config{}, WithCheckpointDir(dir))
	for _, comp := range comps {
		if err := first.Observe(comp, 1, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(first.checkpointPath("app2")); err != nil {
		t.Fatal(err)
	}
	second := NewSlave("h", append(comps, "db"), core.Config{}, WithCheckpointDir(dir))
	defer second.Close()
	if got, want := second.RestoredComponents(), []string{"app1", "db", "web"}; !slices.Equal(got, want) {
		t.Errorf("RestoredComponents = %v, want %v", got, want)
	}
}

// TestVersion1CheckpointColdStartsOnce: a checkpoint directory written by an
// earlier build holds a version-1 file (a JSON envelope) or a version-2 one
// (dense model rows). The slave cold-starts that component and still
// ingests and analyzes; Close rewrites the file in the current version,
// which the next slave restores.
func TestVersion1CheckpointColdStartsOnce(t *testing.T) {
	for _, old := range []string{"checkpoint_v1.ckpt", "checkpoint_v2.ckpt"} {
		t.Run(old, func(t *testing.T) {
			dir := t.TempDir()
			raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", old))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, apps.DB+".ckpt")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			second := NewSlave("h", []string{apps.DB}, core.Config{}, WithCheckpointDir(dir))
			if got := second.RestoredComponents(); len(got) != 0 {
				t.Fatalf("%s restored: %v", old, got)
			}
			for ts := int64(1); ts <= 50; ts++ {
				if err := second.Observe(apps.DB, ts, metric.CPU, 50); err != nil {
					t.Fatal(err)
				}
			}
			second.Analyze(50)
			if err := second.Close(); err != nil {
				t.Fatal(err)
			}
			if raw, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			header := binary.LittleEndian.AppendUint32([]byte("FCHAINCK"), core.CheckpointVersion)
			if !bytes.HasPrefix(raw, header) {
				t.Fatalf("Close left %.20q, not a version-%d checkpoint", raw, core.CheckpointVersion)
			}

			third := NewSlave("h", []string{apps.DB}, core.Config{}, WithCheckpointDir(dir))
			defer third.Close()
			if got := third.RestoredComponents(); !slices.Equal(got, []string{apps.DB}) {
				t.Fatalf("rewritten checkpoint restored %v, want [%s]", got, apps.DB)
			}
			if err := third.Observe(apps.DB, 50, metric.CPU, 50); err == nil {
				t.Error("the restored slave accepted a sample it had already observed")
			}
		})
	}
}
