package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// feedAll observes one sample per metric kind at time t, derived
// deterministically from (t, kind) so different feeds agree.
func feedAll(t testing.TB, m *Monitor, ts int64) {
	t.Helper()
	for _, k := range metric.Kinds {
		v := float64((ts*int64(k)*7)%13) + 0.25*float64(int(k))
		if err := m.Observe(ts, k, v); err != nil {
			t.Fatal(err)
		}
	}
}

// frameBytes encodes m's full frame: two monitors with equal bytes here hold
// byte-identical models, histories and sanitizer state.
func frameBytes(t testing.TB, m *Monitor) []byte {
	t.Helper()
	var d ReplDelta
	m.fullInto(&d)
	return wireBytes(t, &d)
}

// bitsRun builds the run of vs at consecutive timestamps from t0, encoded
// as DeltaInto encodes it.
func bitsRun(t0 int64, vs ...float64) ReplRun {
	r := ReplRun{T0: t0}
	for _, v := range vs {
		r.V = binary.LittleEndian.AppendUint64(r.V, math.Float64bits(v))
	}
	return r
}

// wireBytes encodes d as a replicate frame's body.
func wireBytes(t testing.TB, d *ReplDelta) []byte {
	t.Helper()
	raw, err := d.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// shipped returns the floors a standby holds once frame d arrives on a
// channel that has shipped nothing.
func shipped(d *ReplDelta) *Floors {
	floors := new(Floors)
	d.AdvanceFloors(floors)
	return floors
}

// floorsOf returns live floors at the listed metrics' timestamps.
func floorsOf(at map[string]int64) *Floors {
	f := &Floors{live: true}
	for i, k := range metric.Kinds {
		f.t[i], f.has[i] = at[k.String()]
	}
	return f
}

// floorsAt returns live floors at ts for every metric.
func floorsAt(ts int64) *Floors {
	at := map[string]int64{}
	for _, k := range metric.Kinds {
		at[k.String()] = ts
	}
	return floorsOf(at)
}

// floorMap lists f's floors by metric name.
func floorMap(f *Floors) map[string]int64 {
	at := map[string]int64{}
	for i, k := range metric.Kinds {
		if f.has[i] {
			at[k.String()] = f.t[i]
		}
	}
	return at
}

// incrementalAt returns an incremental frame for component c whose every
// metric's base is ts, with runs on cpu.
func incrementalAt(ts int64, cpu ...ReplRun) *ReplDelta {
	d := &ReplDelta{Component: "c"}
	for i := range d.Metrics {
		d.Metrics[i].LastT, d.Metrics[i].HasLast = ts, true
	}
	d.Metrics[0].Runs = cpu
	return d
}

// overWire returns what a standby decodes from d's encoding.
func overWire(t testing.TB, d *ReplDelta) *ReplDelta {
	t.Helper()
	var out ReplDelta
	if err := DecodeDelta(wireBytes(t, d), &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestReplDeltaRoundTrip drives the full replication cycle — full snapshot,
// then repeated incremental deltas across a wire trip — and requires the
// shadow monitor to match the primary byte-identically after every apply.
// This is the property warm promotion rests on: a promoted shadow must answer
// analyze exactly as the dead primary would have.
func TestReplDeltaRoundTrip(t *testing.T) {
	cfg := Config{}
	primary := NewMonitor("c", cfg)
	shadow := NewMonitor("c", cfg)

	ts := int64(1)
	for ; ts <= 50; ts++ {
		feedAll(t, primary, ts)
	}
	var full ReplDelta
	primary.FrameInto(&full, new(Floors))
	floors := shipped(&full)
	if err := shadow.ApplyDelta(&full); err != nil {
		t.Fatalf("full apply: %v", err)
	}
	if a, b := frameBytes(t, primary), frameBytes(t, shadow); !bytes.Equal(a, b) {
		t.Fatal("shadow differs from primary after full snapshot apply")
	}

	var d ReplDelta
	for round := 0; round < 3; round++ {
		for end := ts + 20; ts < end; ts++ {
			feedAll(t, primary, ts)
		}
		changed, ok := primary.DeltaInto(&d, floors)
		if !ok || !changed {
			t.Fatalf("round %d: DeltaInto = (changed=%v, ok=%v), want incremental delta", round, changed, ok)
		}
		// Wire trip: the standby applies what decoding reconstructs, not the
		// primary's in-memory buffers.
		if err := shadow.ApplyDelta(overWire(t, &d)); err != nil {
			t.Fatalf("round %d: incremental apply: %v", round, err)
		}
		d.AdvanceFloors(floors)
		if a, b := frameBytes(t, primary), frameBytes(t, shadow); !bytes.Equal(a, b) {
			t.Fatalf("round %d: shadow diverged from primary after incremental apply", round)
		}
	}

	// A tick with no new samples extracts nothing but stays on the
	// incremental path.
	if changed, ok := primary.DeltaInto(&d, floors); changed || !ok {
		t.Fatalf("quiet tick: DeltaInto = (changed=%v, ok=%v), want (false, true)", changed, ok)
	}
}

// TestReplDeltaFullFallbacks enumerates the conditions under which the
// incremental path must refuse (ok=false) and force a full-snapshot ship,
// and the cause FrameInto names for each.
func TestReplDeltaFullFallbacks(t *testing.T) {
	cfg := Config{RingCapacity: 8}
	causes := func(t *testing.T, m *Monitor, floors *Floors, want FullCause) {
		t.Helper()
		var d ReplDelta
		if cause, _ := m.FrameInto(&d, floors); !d.Full || cause != want {
			t.Fatalf("FrameInto built a full frame %v with cause %q, want one with %q", d.Full, cause, want)
		}
	}
	full := func(m *Monitor) *ReplDelta {
		var d ReplDelta
		m.fullInto(&d)
		return &d
	}

	t.Run("nil floors", func(t *testing.T) {
		m := NewMonitor("c", cfg)
		feedAll(t, m, 1)
		var d ReplDelta
		if _, ok := m.DeltaInto(&d, new(Floors)); ok {
			t.Fatal("nil floors must force a full ship")
		}
		causes(t, m, new(Floors), FullFirst)
	})

	t.Run("forgotten floors", func(t *testing.T) {
		m := NewMonitor("c", cfg)
		feedAll(t, m, 1)
		floors := shipped(full(m))
		floors.Forget(FullNAK)
		floors.Forget(FullReset) // already forgotten: the first cause stands
		causes(t, m, floors, FullNAK)
		var d ReplDelta
		incremental := *full(m)
		incremental.Full = false
		incremental.AdvanceFloors(floors) // an incremental frame cannot bring them back
		causes(t, m, floors, FullNAK)
		full(m).AdvanceFloors(floors)
		if _, ok := m.DeltaInto(&d, floors); !ok {
			t.Fatal("a full frame's floors must reopen the incremental path")
		}
	})

	t.Run("first samples since last ship", func(t *testing.T) {
		m := NewMonitor("c", cfg)
		floors := shipped(full(m)) // shipped while the monitor was empty
		feedAll(t, m, 1)
		var d ReplDelta
		if _, ok := m.DeltaInto(&d, floors); ok {
			t.Fatal("a metric's first samples must force a full ship")
		}
		causes(t, m, floors, FullNewMetric)
	})

	t.Run("eviction past the floor", func(t *testing.T) {
		m := NewMonitor("c", cfg)
		feedAll(t, m, 1)
		floors := shipped(full(m))
		// RingCapacity is 8: twenty more samples evict t=2, the first sample
		// past the floor.
		for ts := int64(2); ts <= 21; ts++ {
			feedAll(t, m, ts)
		}
		var d ReplDelta
		if _, ok := m.DeltaInto(&d, floors); ok {
			t.Fatal("eviction past the floor must force a full ship")
		}
		causes(t, m, floors, FullEviction)
	})

	t.Run("floor ahead of the monitor", func(t *testing.T) {
		m := NewMonitor("c", cfg)
		feedAll(t, m, 5)
		floors := floorsAt(9) // claims a ship the monitor never saw
		var d ReplDelta
		if _, ok := m.DeltaInto(&d, floors); ok {
			t.Fatal("a floor ahead of the monitor's history must force a full ship")
		}
		causes(t, m, floors, FullSever)
	})
}

// TestReplDeltaApplyRejectsGaps pins the standby-side safety net: a delta
// whose base precondition does not match the shadow's state is refused with
// ErrReplGap before any mutation, so a NAK-and-full-resend always recovers.
func TestReplDeltaApplyRejectsGaps(t *testing.T) {
	cfg := Config{}

	build := func(upTo int64) *Monitor {
		m := NewMonitor("c", cfg)
		for ts := int64(1); ts <= upTo; ts++ {
			feedAll(t, m, ts)
		}
		return m
	}

	t.Run("empty shadow, incremental delta", func(t *testing.T) {
		shadow := NewMonitor("c", cfg)
		err := shadow.ApplyDelta(incrementalAt(10, bitsRun(11, 1)))
		if !errors.Is(err, ErrReplGap) {
			t.Fatalf("err = %v, want ErrReplGap", err)
		}
	})

	t.Run("base behind the shadow", func(t *testing.T) {
		shadow := build(10)
		before := frameBytes(t, shadow)
		err := shadow.ApplyDelta(incrementalAt(5, bitsRun(6, 1)))
		if !errors.Is(err, ErrReplGap) {
			t.Fatalf("err = %v, want ErrReplGap", err)
		}
		if !bytes.Equal(before, frameBytes(t, shadow)) {
			t.Fatal("rejected delta mutated the shadow")
		}
	})

	t.Run("base ahead of the shadow", func(t *testing.T) {
		shadow := build(10)
		err := shadow.ApplyDelta(incrementalAt(20))
		if !errors.Is(err, ErrReplGap) {
			t.Fatalf("err = %v, want ErrReplGap", err)
		}
	})

	t.Run("wrong component", func(t *testing.T) {
		shadow := build(3)
		d := incrementalAt(3)
		d.Component = "other"
		err := shadow.ApplyDelta(d)
		if err == nil || errors.Is(err, ErrReplGap) {
			t.Fatalf("err = %v, want a non-gap component mismatch", err)
		}
	})
}

// TestReplDeltaApplyRejectsBadRuns pins that ApplyDelta checks every run of
// every metric before it replays any: a malformed run on the last metric is
// refused with ErrReplGap and leaves the shadow untouched, although the
// metrics before it carry good runs.
func TestReplDeltaApplyRejectsBadRuns(t *testing.T) {
	last := len(metric.Kinds) - 1
	good := func(lastRuns ...ReplRun) *ReplDelta {
		d := incrementalAt(10)
		for i := range d.Metrics {
			d.Metrics[i].Runs = []ReplRun{bitsRun(11, 1, 2)}
		}
		d.Metrics[last].Runs = lastRuns
		return d
	}
	nan := bitsRun(11, 1)
	binary.LittleEndian.PutUint64(nan.V, 0x7ff8000000000001)
	for _, tc := range []struct {
		name string
		runs []ReplRun
	}{
		{"ragged value bytes", []ReplRun{{T0: 11, V: make([]byte, 12)}}},
		{"empty run", []ReplRun{{T0: 11}}},
		{"timestamp overflow", []ReplRun{{T0: math.MaxInt64 - 1, V: make([]byte, 24)}}},
		{"run at base", []ReplRun{bitsRun(10, 1)}},
		{"run before base", []ReplRun{bitsRun(5, 1)}},
		{"overlapping runs", []ReplRun{bitsRun(11, 1, 2, 3), bitsRun(13, 4)}},
		{"descending runs", []ReplRun{bitsRun(20, 1), bitsRun(15, 2)}},
		{"non-finite value", []ReplRun{nan}},
		{"infinite value", []ReplRun{bitsRun(11, 1, math.Inf(-1))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shadow := NewMonitor("c", Config{})
			for ts := int64(1); ts <= 10; ts++ {
				feedAll(t, shadow, ts)
			}
			before := frameBytes(t, shadow)
			err := shadow.ApplyDelta(good(tc.runs...))
			if !errors.Is(err, ErrReplGap) {
				t.Fatalf("err = %v, want ErrReplGap", err)
			}
			if !bytes.Equal(before, frameBytes(t, shadow)) {
				t.Fatal("rejected delta mutated the shadow")
			}
		})
	}

	t.Run("two runs across a gap", func(t *testing.T) {
		primary, shadow := NewMonitor("c", Config{}), NewMonitor("c", Config{})
		for ts := int64(1); ts <= 10; ts++ {
			feedAll(t, primary, ts)
			feedAll(t, shadow, ts)
		}
		d := good(bitsRun(11, 1, 2), bitsRun(20, 3))
		for i, k := range metric.Kinds {
			for _, r := range d.Metrics[i].Runs {
				for i := range r.n() {
					if err := primary.Observe(r.T0+int64(i), k, r.value(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := shadow.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frameBytes(t, primary), frameBytes(t, shadow)) {
			t.Fatal("shadow differs from the primary that observed the same runs")
		}
	})
}

// TestReplRunsCarryExactBits sends values whose decimal form is delicate
// (negative zero, the smallest subnormal, one whose shortest decimal needs
// 17 digits, and the largest finite value) through DeltaInto → AppendBinary
// → DecodeDelta → ApplyDelta and requires the shadow to hold the primary's
// bits and state. The largest finite value goes last, in its own ship: it
// grows the Markov range as far as a finite sample can, and the snapshot
// JSON must still carry it.
func TestReplRunsCarryExactBits(t *testing.T) {
	const digits17 = 0.30000000000000004
	if got := strconv.FormatFloat(digits17, 'g', -1, 64); len(got) != len("0.")+17 {
		t.Fatalf("%s is not a 17-digit shortest decimal", got)
	}
	primary, shadow := NewMonitor("c", Config{}), NewMonitor("c", Config{})
	for ts := int64(1); ts <= 10; ts++ {
		feedAll(t, primary, ts)
	}
	var full ReplDelta
	primary.FrameInto(&full, new(Floors))
	floors := shipped(&full)
	if err := shadow.ApplyDelta(&full); err != nil {
		t.Fatal(err)
	}
	ts := int64(11)
	ship := func(vs ...float64) {
		t.Helper()
		for _, v := range vs {
			for _, k := range metric.Kinds {
				if err := primary.Observe(ts, k, v); err != nil {
					t.Fatal(err)
				}
			}
			ts++
		}
		var d ReplDelta
		if changed, ok := primary.DeltaInto(&d, floors); !changed || !ok {
			t.Fatalf("DeltaInto = (%v, %v), want an incremental delta", changed, ok)
		}
		if err := shadow.ApplyDelta(overWire(t, &d)); err != nil {
			t.Fatal(err)
		}
		d.AdvanceFloors(floors)
		for _, k := range metric.Kinds {
			p, s := primary.shards[k].samples, shadow.shards[k].samples
			if p.Len() != s.Len() {
				t.Fatalf("%s: shadow holds %d samples, primary %d", k, s.Len(), p.Len())
			}
			for i := range p.Len() {
				if a, b := math.Float64bits(p.Value(i)), math.Float64bits(s.Value(i)); a != b {
					t.Fatalf("%s sample %d: shadow bits %#x, primary %#x", k, i, b, a)
				}
			}
			for i, v := range vs {
				if got := s.Value(s.Len() - len(vs) + i); math.Float64bits(got) != math.Float64bits(v) {
					t.Errorf("%s: shadow holds %#x, sent %#x", k, math.Float64bits(got), math.Float64bits(v))
				}
			}
		}
	}

	ship(math.Copysign(0, -1), math.SmallestNonzeroFloat64, digits17)
	if !bytes.Equal(frameBytes(t, primary), frameBytes(t, shadow)) {
		t.Fatal("shadow snapshot JSON differs from the primary's")
	}
	ship(math.MaxFloat64)
	if !bytes.Equal(frameBytes(t, primary), frameBytes(t, shadow)) {
		t.Fatal("shadow snapshot JSON differs from the primary's")
	}
}

// pinnedMonitor loads testdata/checkpoint_v2.ckpt (RingCapacity 16: a time
// gap, wrapped rings, a sanitized stream and never-observed metrics) after
// setting one sample and one prediction error of cpu to -0 and two to the
// smallest subnormal, values whose decimal form is delicate.
func pinnedMonitor(t *testing.T) (*Monitor, Config) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var d ReplDelta
	if err := decodeCheckpoint(raw, &d); err != nil {
		t.Fatal(err)
	}
	runs := cpuEntry(&d).Runs
	first, last := &runs[0], &runs[len(runs)-1]
	for _, bits := range [][2][]byte{{first.V, last.V}, {first.E, last.E}} {
		first, last := bits[0], bits[1]
		binary.LittleEndian.PutUint64(first, math.Float64bits(math.Copysign(0, -1)))
		binary.LittleEndian.PutUint64(first[8:], math.Float64bits(math.SmallestNonzeroFloat64))
		binary.LittleEndian.PutUint64(last[len(last)-8:], math.Float64bits(math.SmallestNonzeroFloat64))
	}
	cfg := DefaultConfig()
	cfg.RingCapacity = 16
	m := NewMonitor("db", cfg)
	if err := m.applyFull(&d); err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

// receive is a standby's handling of one frame's payload: decode, then
// apply.
func receive(shadow *Monitor, raw []byte) error {
	var d ReplDelta
	if err := DecodeDelta(raw, &d); err != nil {
		return err
	}
	return shadow.ApplyDelta(&d)
}

// TestReplFullFrameEquivalence ships the pinned monitor as a full frame
// over the wire encoding into a shadow that already holds other state. The
// shadow's snapshot JSON must equal the primary's byte for byte, every value
// of both rings must carry the primary's bits, and the floors FrameInto
// returns must be the primary's last timestamps.
func TestReplFullFrameEquivalence(t *testing.T) {
	primary, cfg := pinnedMonitor(t)
	var d ReplDelta
	cause, changed := primary.FrameInto(&d, new(Floors))
	if !changed || !d.Full || cause != FullFirst {
		t.Fatalf("FrameInto(nil floors) = changed %v, cause %q, full %v, want a first full frame",
			changed, cause, d.Full)
	}
	if floors, want := floorMap(shipped(&d)), map[string]int64{"cpu": 115, "disk_read": 149, "memory": 139, "net_in": 119}; !reflect.DeepEqual(floors, want) {
		t.Errorf("full frame floors = %v, want %v", floors, want)
	}
	raw := wireBytes(t, &d)
	shadow := NewMonitor("db", cfg)
	for ts := int64(1); ts <= 40; ts++ {
		feedAll(t, shadow, ts)
	}
	if err := receive(shadow, raw); err != nil {
		t.Fatal(err)
	}
	if a, b := frameBytes(t, primary), frameBytes(t, shadow); !bytes.Equal(a, b) {
		t.Fatalf("shadow frame differs from the primary's:\ngot  %x\nwant %x", b, a)
	}
	for _, k := range metric.Kinds {
		p, s := &primary.shards[k], &shadow.shards[k]
		for _, rings := range [][2]*timeseries.Ring{{p.samples, s.samples}, {p.errs, s.errs}} {
			if rings[0].Len() != rings[1].Len() {
				t.Fatalf("%s: shadow ring holds %d values, primary %d", k, rings[1].Len(), rings[0].Len())
			}
			for i := range rings[0].Len() {
				if a, b := math.Float64bits(rings[0].Value(i)), math.Float64bits(rings[1].Value(i)); a != b {
					t.Errorf("%s value %d: shadow bits %#x, primary %#x", k, i, b, a)
				}
			}
		}
	}
}

// TestReplFullFrameMixedVersions pins that a peer of the previous version,
// whose replication payloads were JSON, and this version fail closed against
// each other. This version refuses a JSON payload, full or incremental, with
// ErrReplGap and leaves the shadow as it was; a body of this version, even an
// empty monitor's, is not JSON, so the previous version can neither decode it
// as a payload nor parse it as its next frame.
func TestReplFullFrameMixedVersions(t *testing.T) {
	primary, cfg := pinnedMonitor(t)
	shadow := NewMonitor("db", cfg)
	for ts := int64(1); ts <= 10; ts++ {
		feedAll(t, shadow, ts)
	}
	before := frameBytes(t, shadow)
	// The previous version's full payload carried the decimal snapshot this
	// fixture holds.
	snapshot, err := os.ReadFile(filepath.Join("testdata", "two_column_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string]any{
		"full": map[string]any{"component": "db", "full": json.RawMessage(snapshot)},
		"incremental": map[string]any{"component": "db", "base": map[string]int64{"cpu": 10},
			"samples": map[string]any{"cpu": []map[string]any{{"t0": 11, "v": "AAAAAAAA8D8="}}}},
	} {
		raw, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := receive(shadow, raw); !errors.Is(err, ErrReplGap) {
			t.Fatalf("previous-version %s payload: err = %v, want ErrReplGap", name, err)
		}
	}
	if !bytes.Equal(before, frameBytes(t, shadow)) {
		t.Fatal("refused frame changed the shadow")
	}

	for _, m := range []*Monitor{primary, NewMonitor("db", cfg)} {
		var d ReplDelta
		m.FrameInto(&d, new(Floors))
		var old map[string]any
		if err := json.Unmarshal(wireBytes(t, &d), &old); err == nil {
			t.Errorf("a JSON decoder reads this version's full frame as %v", old)
		}
	}
}

// TestReplFullFrameRejects bends one part of a valid full frame at a time:
// each must be refused with ErrReplGap and leave the shadow untouched. A
// part a ReplDelta cannot hold — a metric's name or position, error run
// times, incremental sections beside the full state — is bent in the body
// the standby receives, the rest in memory.
func TestReplFullFrameRejects(t *testing.T) {
	primary := NewMonitor("c", Config{})
	for ts := int64(1); ts <= 30; ts++ {
		feedAll(t, primary, ts)
	}
	for _, tc := range []struct {
		name string
		bend func(d *ReplDelta)
		body func(p *fullParts)
	}{
		{name: "ragged error run", bend: func(d *ReplDelta) { f := cpuEntry(d); f.Runs[0].E = f.Runs[0].E[:12] }},
		{name: "error times off the sample times", body: func(p *fullParts) { p.errs[0][0].T0++ }},
		{name: "sample run overflowing the timestamp", bend: func(d *ReplDelta) { cpuEntry(d).Runs[0].T0 = math.MaxInt64 - 1 }},
		{name: "non-finite sample", bend: func(d *ReplDelta) {
			binary.LittleEndian.PutUint64(cpuEntry(d).Runs[0].V, math.Float64bits(math.Inf(1)))
		}},
		{name: "last_t behind the newest sample", bend: func(d *ReplDelta) { cpuEntry(d).LastT-- }},
		{name: "samples without last_t", bend: func(d *ReplDelta) { cpuEntry(d).HasLast = false }},
		{name: "missing model", bend: func(d *ReplDelta) { cpuEntry(d).Model = nil }},
		{name: "unknown metric", body: func(p *fullParts) { p.names[0] = "gpu" }},
		{name: "metric twice", body: func(p *fullParts) { p.names[len(p.names)-1] = "cpu" }},
		{name: "metric missing", body: func(p *fullParts) { p.names = p.names[:len(p.names)-1] }},
		{name: "incremental samples beside it", body: func(p *fullParts) {
			p.tail = append([]byte{1, 0, 60, 1, 0}, appendRunsBinary(nil, []ReplRun{bitsRun(31, 1)}, false)...)
			p.tail = append(p.tail, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d ReplDelta
			primary.FrameInto(&d, new(Floors))
			shadow := NewMonitor("c", Config{})
			for ts := int64(1); ts <= 10; ts++ {
				feedAll(t, shadow, ts)
			}
			before := frameBytes(t, shadow)
			var err error
			if tc.bend != nil {
				tc.bend(&d)
				err = shadow.ApplyDelta(&d)
			} else {
				p := splitFull(t, &d)
				tc.body(p)
				err = receive(shadow, p.join(&d))
			}
			if !errors.Is(err, ErrReplGap) {
				t.Fatalf("err = %v, want ErrReplGap", err)
			}
			if !bytes.Equal(before, frameBytes(t, shadow)) {
				t.Fatal("refused frame changed the shadow")
			}
		})
	}
}

// TestReplDeltaSteadyStateAllocs is the perf ratchet on the extraction path:
// once d's buffers are sized, re-extracting a delta must not allocate, so a
// replication tick's cost on a quiet component is a few ring reads — nothing
// the Observe hot path ever contends with.
func TestReplDeltaSteadyStateAllocs(t *testing.T) {
	m := NewMonitor("c", Config{})
	for ts := int64(1); ts <= 100; ts++ {
		feedAll(t, m, ts)
	}
	floors := floorsAt(60) // every tick re-extracts the same 40-sample tail
	var d ReplDelta
	if changed, ok := m.DeltaInto(&d, floors); !changed || !ok {
		t.Fatalf("warm-up DeltaInto = (%v, %v), want (true, true)", changed, ok)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if changed, ok := m.DeltaInto(&d, floors); !changed || !ok {
			t.Fatal("steady-state extraction fell off the incremental path")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DeltaInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestApplyFullRingsAllocFree guards the full-frame install (a checkpoint
// load, a promoted standby's frames): the frame's samples are pushed into
// the monitor's own rings, so applying it allocates no ring storage — less
// than one ring's values per apply, where new rings would take twelve — and
// leaves the monitor byte-identical to the frame's source, with none of its
// own earlier samples.
func TestApplyFullRingsAllocFree(t *testing.T) {
	cfg := Config{}.withDefaults()
	primary, shadow := NewMonitor("c", cfg), NewMonitor("c", cfg)
	for ts := int64(1); ts <= int64(cfg.RingCapacity)+100; ts++ {
		feedAll(t, primary, ts)
	}
	for ts := int64(5000); ts < 5050; ts++ {
		feedAll(t, shadow, ts)
	}
	var frame ReplDelta
	primary.fullInto(&frame)
	cpu := &shadow.shards[metric.CPU]
	samples, errs := cpu.samples, cpu.errs
	if err := shadow.ApplyDelta(&frame); err != nil {
		t.Fatal(err)
	}
	if cpu.samples != samples || cpu.errs != errs {
		t.Fatal("applying a full frame replaced the shard's rings")
	}
	if !bytes.Equal(frameBytes(t, shadow), frameBytes(t, primary)) {
		t.Fatal("the monitor a full frame was applied to differs from the frame's source")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const applies = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range applies {
		if err := shadow.ApplyDelta(&frame); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perApply := (after.TotalAlloc - before.TotalAlloc) / applies
	t.Logf("%d bytes allocated per full-frame apply", perApply)
	if ring := uint64(cfg.RingCapacity) * 8; perApply >= ring {
		t.Fatalf("a full-frame apply allocates %d bytes, want less than one ring's %d", perApply, ring)
	}
}

// TestSanitizerStateTravels pins that a stream's new owner treats the next
// sample as the old one would have, whichever way the state reached it: the
// clamp's running statistics, the gap-repair anchor and the quality counters
// ride every snapshot and every replication frame. With the default clamp on,
// a far outlier ingested after the move must leave the moved monitor and a
// never-moved twin byte-identical.
func TestSanitizerStateTravels(t *testing.T) {
	ingestAll := func(m *Monitor, ts int64) {
		for _, k := range metric.Kinds {
			v := float64((ts*int64(k)*7)%13) + 0.25*float64(int(k))
			if err := m.Ingest(ts, k, v); err != nil {
				t.Fatal(err)
			}
		}
		m.FlushIngest(ts)
	}
	twin := NewMonitor("c", Config{})
	for ts := int64(1); ts <= 100; ts++ {
		ingestAll(twin, ts)
	}
	var frame ReplDelta
	twin.FrameInto(&frame, new(Floors))
	floors := shipped(&frame)
	full := overWire(t, &frame)
	restored := NewMonitor("c", Config{})
	if err := loadBytes(restored, twin.encodeCheckpoint()); err != nil {
		t.Fatal(err)
	}
	shadow := NewMonitor("c", Config{})
	if err := shadow.ApplyDelta(full); err != nil {
		t.Fatal(err)
	}
	for ts := int64(101); ts <= 120; ts++ {
		ingestAll(twin, ts)
		ingestAll(restored, ts)
	}
	var d ReplDelta
	if changed, ok := twin.DeltaInto(&d, floors); !changed || !ok {
		t.Fatalf("DeltaInto = (%v, %v), want an incremental delta", changed, ok)
	}
	if err := shadow.ApplyDelta(overWire(t, &d)); err != nil {
		t.Fatal(err)
	}

	for _, m := range []*Monitor{twin, restored, shadow} {
		if err := m.Ingest(121, metric.CPU, 1e12); err != nil {
			t.Fatal(err)
		}
		m.FlushIngest(121)
	}
	if q := twin.Quality(); q.Clamped != 1 {
		t.Fatalf("twin clamped %d samples, want the outlier clamped once", q.Clamped)
	}
	want := frameBytes(t, twin)
	for name, m := range map[string]*Monitor{"restored": restored, "shadow": shadow} {
		if got := frameBytes(t, m); !bytes.Equal(got, want) {
			t.Errorf("%s monitor differs from its never-moved twin after a clamped outlier", name)
		}
		if got, want := m.Quality(), twin.Quality(); got != want {
			t.Errorf("%s quality = %+v, twin has %+v", name, got, want)
		}
	}
}
