package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fchain/internal/ingest"
	"fchain/internal/markov"
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

// sealCheckpoint wraps body in a checkpoint header that matches it.
func sealCheckpoint(body []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), CheckpointVersion)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	return append(b, body...)
}

// loadBytes is LoadCheckpoint on a file's contents.
func loadBytes(m *Monitor, raw []byte) error {
	var d ReplDelta
	if err := decodeCheckpoint(raw, &d); err != nil {
		return err
	}
	return m.applyFull(&d)
}

// TestCheckpointFileRoundTrip saves a monitor mid-fault and loads the file
// into a fresh one, which must analyze the window to the same onset, carry
// the ingestion clock over, and save back to the same bytes; the save leaves
// no temp file behind.
func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.ckpt")
	m := trainedMonitor(t, 850)
	if err := m.SaveCheckpoint(path); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	fresh := NewMonitor("db", DefaultConfig())
	if err := fresh.LoadCheckpoint(path); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	want, got := m.Analyze(899), fresh.Analyze(899)
	if !want.Abnormal() {
		t.Fatal("control analysis found nothing; test signal broken")
	}
	if !got.Abnormal() || got.Onset != want.Onset {
		t.Errorf("restored analysis = %+v, want onset %d", got, want.Onset)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again := fresh.encodeCheckpoint(); !bytes.Equal(again, saved) {
		t.Error("the restored monitor saves different bytes")
	}
	if err := fresh.Observe(899, metric.CPU, 1); err == nil {
		t.Error("restored monitor accepted a replayed timestamp")
	}
	if err := fresh.Observe(900, metric.CPU, 1); err != nil {
		t.Errorf("restored monitor rejected an advancing sample: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d files, want 1", len(entries))
	}
}

// TestMonitorRestoreRejectsMismatch: a checkpoint loads only into a monitor
// of its own component, and a frame naming a metric this version does not
// know is refused.
func TestMonitorRestoreRejectsMismatch(t *testing.T) {
	m := trainedMonitor(t, -1)
	path := filepath.Join(t.TempDir(), "db.ckpt")
	if err := m.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	web := NewMonitor("web", DefaultConfig())
	before := frameBytes(t, web)
	if err := web.LoadCheckpoint(path); err == nil {
		t.Error("component mismatch accepted")
	}
	if !bytes.Equal(before, frameBytes(t, web)) {
		t.Error("refused checkpoint changed the monitor")
	}
	assertRestoreRejectsBody(t, func(p *fullParts) { p.names[0] = "bogus_metric" })
	if err := m.ApplyDelta(nil); err == nil {
		t.Error("nil frame accepted")
	}
}

func TestLoadCheckpointDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.ckpt")
	m := trainedMonitor(t, -1)
	if err := m.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bend func(b []byte) []byte
	}{
		// One bit of one value in the body: the frame still decodes, only
		// the checksum can tell.
		{"flipped body bit", func(b []byte) []byte { b[len(b)-100] ^= 1; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"header only", func(b []byte) []byte { return b[:checkpointHeader] }},
		{"future version", func(b []byte) []byte { b[len(checkpointMagic)]++; return b }},
		{"other magic", func(b []byte) []byte { b[0] = '{'; return b }},
		{"empty", func([]byte) []byte { return nil }},
	} {
		bent := tc.bend(append([]byte(nil), raw...))
		if err := os.WriteFile(path, bent, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewMonitor("db", DefaultConfig())
		if err := fresh.LoadCheckpoint(path); err == nil {
			t.Errorf("%s checkpoint accepted", tc.name)
		}
	}
	// Missing file surfaces an error for the caller's cold-start fallback.
	if err := NewMonitor("db", DefaultConfig()).LoadCheckpoint(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// pinnedRing is one ring of the decimal JSON fixture.
type pinnedRing struct {
	Times []int64   `json:"times"`
	Vals  []float64 `json:"vals"`
}

// pinnedModel is a model of the decimal JSON fixture: a markov.Snapshot
// as an earlier build wrote it, with dense count rows of bins columns, nil
// for a row whose total is 0, in place of the mask and cells.
type pinnedModel struct {
	markov.Snapshot
	Counts [][]float64 `json:"counts"`
}

// packed returns the model as a predictor restored from it holds it: one
// cell per positive count.
func (pm *pinnedModel) packed() *markov.Snapshot {
	s := pm.Snapshot
	words := (s.Bins + 63) / 64
	s.Mask = make([]uint64, s.Bins*words)
	for i, row := range pm.Counts {
		for j, c := range row {
			if c > 0 {
				s.Mask[i*words+j/64] |= 1 << (j % 64)
				s.Cells = append(s.Cells, c)
			}
		}
	}
	return &s
}

// pinnedState is the decimal JSON fixture two_column_snapshot.json, the
// checkpoint payload of an earlier build.
type pinnedState struct {
	Models     map[string]*pinnedModel `json:"models"`
	Samples    map[string]pinnedRing   `json:"samples"`
	Errs       map[string]pinnedRing   `json:"errs"`
	LastT      map[string]int64        `json:"last_t"`
	Sanitizers map[string]ingest.State `json:"sanitizers"`
}

// pinnedCheckpoint loads testdata/checkpoint_v3.ckpt (RingCapacity 16),
// which was generated once from testdata/two_column_snapshot.json.
func pinnedCheckpoint(t *testing.T) *Monitor {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RingCapacity = 16
	m := NewMonitor("db", cfg)
	if err := m.LoadCheckpoint(filepath.Join("testdata", "checkpoint_v3.ckpt")); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckpointFormatPinned loads the version-3 fixture, requires every
// ring, last_t, model and sanitizer state it restores to equal what the
// decimal JSON it was generated from lists, and to replicate across a gap
// exactly what the two-column ring layout did. The fixture (RingCapacity
// 16) holds a metric with a time gap (cpu), a wrapped ring (memory), a
// wrapped ring that still spans a gap (disk_read), a sanitized stream
// (net_in) and two metrics that were never observed.
func TestCheckpointFormatPinned(t *testing.T) {
	m := pinnedCheckpoint(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "two_column_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var listed pinnedState
	if err := json.Unmarshal(raw, &listed); err != nil {
		t.Fatal(err)
	}
	for _, k := range metric.Kinds {
		name, sh := k.String(), &m.shards[k]
		if got, want := sh.model.Snapshot(), listed.Models[name].packed(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s model = %+v, want %+v", name, got, want)
		}
		for ring, w := range map[string]pinnedRing{"samples": listed.Samples[name], "errs": listed.Errs[name]} {
			r := sh.samples
			if ring == "errs" {
				r = sh.errs
			}
			var got pinnedRing
			for i := range r.Len() {
				ts, v := r.At(i)
				got.Times, got.Vals = append(got.Times, ts), append(got.Vals, v)
			}
			if !reflect.DeepEqual(got, w) {
				t.Errorf("%s %s = %v, want %v", name, ring, got, w)
			}
		}
		if last, ok := listed.LastT[name]; sh.hasLast != ok || sh.lastT != last {
			t.Errorf("%s last_t = %d (present %v), want %d (present %v)", name, sh.lastT, sh.hasLast, last, ok)
		}
		if got := sh.sanitizer.State(); got != listed.Sanitizers[name] {
			t.Errorf("%s sanitizer = %+v, want %+v", name, got, listed.Sanitizers[name])
		}
	}

	floors := floorsOf(map[string]int64{"cpu": 103, "memory": 135, "disk_read": 127, "net_in": 117})
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
	for i, k := range metric.Kinds {
		s := &d.Metrics[i]
		if !reflect.DeepEqual(s.Runs, want[k.String()]) {
			t.Errorf("DeltaInto %s samples = %v, want %v", k, s.Runs, want[k.String()])
		}
		if s.HasLast != floors.has[i] || s.LastT != floors.t[i] {
			t.Errorf("DeltaInto %s base = %d (present %v), want the floor", k, s.LastT, s.HasLast)
		}
	}
	d.AdvanceFloors(floors)
	if got, want := floorMap(floors), map[string]int64{"cpu": 115, "memory": 139, "disk_read": 149, "net_in": 119}; !reflect.DeepEqual(got, want) {
		t.Errorf("advanced floors = %v, want %v", got, want)
	}
}

// assertRestoreRejects bends a trained monitor's full frame, seals it in a
// valid checkpoint header, and requires loading it to fail without touching
// the target monitor.
func assertRestoreRejects(t *testing.T, bend func(d *ReplDelta)) {
	t.Helper()
	var d ReplDelta
	trainedMonitor(t, -1).fullInto(&d)
	bend(&d)
	assertRestoreRefuses(t, wireBytes(t, &d))
}

// assertRestoreRejectsBody is assertRestoreRejects for the parts of a body
// a ReplDelta cannot hold.
func assertRestoreRejectsBody(t *testing.T, bend func(p *fullParts)) {
	t.Helper()
	var d ReplDelta
	trainedMonitor(t, -1).fullInto(&d)
	p := splitFull(t, &d)
	bend(p)
	assertRestoreRefuses(t, p.join(&d))
}

// assertRestoreRefuses requires loading a checkpoint of body to fail
// without touching the target monitor.
func assertRestoreRefuses(t *testing.T, body []byte) {
	t.Helper()
	target := NewMonitor("db", DefaultConfig())
	before := frameBytes(t, target)
	if err := loadBytes(target, sealCheckpoint(body)); err == nil {
		t.Fatal("a checkpoint holding a history Observe could not have built was accepted")
	}
	if !bytes.Equal(before, frameBytes(t, target)) {
		t.Error("rejected checkpoint changed the monitor")
	}
}

// cpuEntry returns the cpu entry of a full frame.
func cpuEntry(d *ReplDelta) *ReplMetric { return &d.Metrics[slices.Index(metric.Kinds, metric.CPU)] }

func TestRestoreRejectsUnorderedSampleTimes(t *testing.T) {
	assertRestoreRejects(t, func(d *ReplDelta) {
		f := cpuEntry(d)
		// The first sample moved after the rest, in both rings.
		r := f.Runs[0]
		f.Runs = []ReplRun{{T0: r.T0 + 1, V: r.V[8:], E: r.E[8:]}, {T0: r.T0, V: r.V[:8], E: r.E[:8]}}
		f.LastT = r.T0
	})
}

func TestRestoreRejectsMisalignedErrorTimes(t *testing.T) {
	assertRestoreRejectsBody(t, func(p *fullParts) { p.errs[0][0].T0-- })
}

func TestRestoreRejectsStaleLastT(t *testing.T) {
	assertRestoreRejects(t, func(d *ReplDelta) { cpuEntry(d).LastT -= 100 })
}

func TestRestoreRejectsMissingLastT(t *testing.T) {
	assertRestoreRejects(t, func(d *ReplDelta) { cpuEntry(d).HasLast = false })
}

// TestCheckpointEnvelopePinned refuses the version-1 fixture, an earlier
// build's JSON envelope, and the version-2 fixture, whose models carried
// dense count rows, leaving the monitor fresh (a slave cold-starts on
// either), and requires a re-save of the monitor the version-3 fixture
// restores to reproduce that file byte for byte.
func TestCheckpointEnvelopePinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingCapacity = 16
	m := NewMonitor("db", cfg)
	fresh := frameBytes(t, m)
	for _, old := range []string{"checkpoint_v1.ckpt", "checkpoint_v2.ckpt"} {
		if err := m.LoadCheckpoint(filepath.Join("testdata", old)); err == nil {
			t.Fatalf("%s accepted", old)
		}
		if !bytes.Equal(fresh, frameBytes(t, m)) {
			t.Fatalf("refused %s changed the monitor", old)
		}
	}

	want, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v3.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	m = pinnedCheckpoint(t)
	path := filepath.Join(t.TempDir(), "db.ckpt")
	if err := m.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved checkpoint differs from the pinned file:\ngot  %x\nwant %x", got, want)
	}
}

// BenchmarkModuleCheckpoint times one default-config component's checkpoint
// with every ring full, 3,000 s of six metrics fed through Ingest: save
// writes the file, load reads it back into a fresh monitor. Both report
// the file's bytes.
func BenchmarkModuleCheckpoint(b *testing.B) {
	const history = 3000
	m := NewMonitor("db", Config{})
	for ts := int64(1); ts <= history; ts++ {
		for _, k := range metric.Kinds {
			v := 50 + 20*math.Sin(float64(ts)/(7+float64(k))) + float64(ts%13)/17
			if err := m.Ingest(ts, k, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	m.FlushIngest(history)
	path := filepath.Join(b.TempDir(), "db.ckpt")
	size := func(b *testing.B) {
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(fi.Size()), "bytes")
	}
	b.Run("save", func(b *testing.B) {
		for range b.N {
			if err := m.SaveCheckpoint(path); err != nil {
				b.Fatal(err)
			}
		}
		size(b)
	})
	b.Run("load", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			fresh := NewMonitor("db", Config{})
			b.StartTimer()
			if err := fresh.LoadCheckpoint(path); err != nil {
				b.Fatal(err)
			}
		}
		size(b)
	})
}
