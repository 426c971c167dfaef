package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"strings"
	"testing"

	"fchain/internal/ingest"
	"fchain/internal/metric"
)

// TestReplWirePinned pins the encoding of one tiny incremental frame, so a
// change to the replication wire format is a deliberate one: a peer of
// another version refuses what it cannot decode, and a silent change would
// leave mixed-version clusters resyncing forever. The samples section lists
// every metric, as every incremental frame does; a body that lists only
// some decodes with no runs for the others.
func TestReplWirePinned(t *testing.T) {
	d := &ReplDelta{Component: "db"}
	cpu := &d.Metrics[0]
	cpu.LastT, cpu.HasLast = 30, true
	cpu.Runs = []ReplRun{bitsRun(31, 1)}
	cpu.Sanitizer = ingest.State{N: 2, Mean: 1, Stats: ingest.Stats{Accepted: 2}}
	body := func(samples string) string {
		return strings.Join([]string{
			"02",               // format
			"026462",           // component "db"
			"00",               // no full state
			"01" + "00" + "3c", // base: cpu at t=30
			samples,
			"01" + "00" + "02" + "000000000000f03f" + "0000000000000000" + "00" + // sanitizers: cpu n=2 mean=1 m2=0 last_out=0
				"0000000000000000" + "00" + // last_val=0 has_out=false
				"02" + "0000000000000000", // stats: accepted=2, the other eight 0
		}, "")
	}
	cpuRun := "00" + "01" + "3e" + "08" + "000000000000f03f" // cpu, one run at t0=31 of 1.0
	want := body("06" + cpuRun + "0100" + "0200" + "0300" + "0400" + "0500")
	got := wireBytes(t, d)
	if hex.EncodeToString(got) != want {
		t.Fatalf("wire bytes\ngot  %x\nwant %s", got, want)
	}
	// A body listing only cpu and memory among the samples.
	partial, err := hex.DecodeString(body("02" + cpuRun + "0100"))
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{got, partial} {
		var back ReplDelta
		if err := DecodeDelta(raw, &back); err != nil {
			t.Fatal(err)
		}
		if again := wireBytes(t, &back); !bytes.Equal(again, got) {
			t.Fatalf("decoded frame re-encodes as %x", again)
		}
		if c := &back.Metrics[0]; back.Full || !c.HasLast || c.LastT != 30 || c.Runs[0].value(0) != 1 ||
			c.Sanitizer != cpu.Sanitizer || back.Metrics[1].HasLast {
			t.Fatalf("decoded %+v", back)
		}
	}
}

// TestDecodeDeltaSteadyStateAllocs is the standby's side of the
// steady-state alloc ratchet: once a connection's ReplDelta has decoded a
// frame, decoding the next steady incremental frame into it allocates
// nothing.
func TestDecodeDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := NewMonitor("c", Config{})
	ingestAll := func(ts int64) {
		for _, k := range metric.Kinds {
			if err := m.Ingest(ts, k, float64(ts%7)+float64(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ts := int64(1); ts <= 100; ts++ {
		ingestAll(ts)
	}
	var frame ReplDelta
	m.FrameInto(&frame, new(Floors))
	floors := shipped(&frame)
	for ts := int64(101); ts <= 105; ts++ {
		ingestAll(ts)
	}
	if _, changed := m.FrameInto(&frame, floors); !changed || frame.Full {
		t.Fatal("FrameInto built no incremental frame")
	}
	raw := wireBytes(t, &frame)
	var d ReplDelta
	if err := DecodeDelta(raw, &d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeDelta(raw, &d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeDelta of a %d-byte frame allocates %.1f times per run, want 0", len(raw), allocs)
	}
}

// fullParts is what a ReplDelta cannot hold of a full frame's body, for
// tests that bend it: the metric entries' names (entry i carries slot i),
// their error runs, each run's error bits as its V, and the bytes after the
// entries.
type fullParts struct {
	names []string
	errs  [][]ReplRun
	tail  []byte
}

// splitFull returns full frame d's parts, which join back to its encoding.
func splitFull(t testing.TB, d *ReplDelta) *fullParts {
	t.Helper()
	p := &fullParts{}
	for i, k := range metric.Kinds {
		p.names = append(p.names, k.String())
		var errs []ReplRun
		for _, r := range d.Metrics[i].Runs {
			errs = append(errs, ReplRun{T0: r.T0, V: r.E})
		}
		p.errs = append(p.errs, errs)
	}
	whole := wireBytes(t, d)
	p.tail = whole[len(p.join(d)):]
	if !bytes.Equal(p.join(d), whole) {
		t.Fatal("a full frame's parts do not join back to its encoding")
	}
	return p
}

// join encodes d's full frame with p's parts.
func (p *fullParts) join(d *ReplDelta) []byte {
	b := appendString([]byte{replFormat}, d.Component)
	b = binary.AppendUvarint(b, uint64(len(p.names)))
	for i, name := range p.names {
		s := &d.Metrics[i]
		b = appendBool(appendString(b, name), s.Model != nil)
		if s.Model != nil {
			b = appendModel(b, s.Model)
		}
		if b = appendBool(b, s.HasLast); s.HasLast {
			b = binary.AppendVarint(b, s.LastT)
		}
		b = appendRunsBinary(appendRunsBinary(b, s.Runs, false), p.errs[i], false)
	}
	return append(b, p.tail...)
}

// TestDecodeDeltaRefusesBeforeAllocating: a body whose count or length claims
// more than the bytes left is refused with ErrReplGap before the decoder
// allocates for it, so a few bytes cannot make a standby allocate
// gigabytes.
func TestDecodeDeltaRefusesBeforeAllocating(t *testing.T) {
	huge := "ffffffff0f" // uvarint 4,294,967,295
	// A full frame up to cpu's model's mask: 8 bins, decay 1, range [0, 1].
	model := "02" + "00" + "06" + "03637075" + "01" + "10" + "000000000000f03f" + "0000000000000000" + "000000000000f03f" + "01"
	word := "01" + "0000000000000000"
	for name, body := range map[string]string{
		"component length": "02" + huge,
		"full count":       "02" + "00" + "06",
		"run count":        "02" + "00" + "00" + "00" + "01" + "00" + huge,
		"run length":       "02" + "00" + "00" + "00" + "01" + "00" + "01" + "02" + huge,
		"mask words":       model + huge,
		"model cells":      model + word + huge,
		"cells past bytes": model + word + "808004", // 65,536 cells, within MaxBins²
		"row sums":         model + word + "00" + huge,
		"sanitizer count":  "02" + "00" + "00" + "00" + "00" + "06",
		"format":           "01" + "00" + "00" + "00" + "00" + "00",
		"trailing bytes":   "02" + "00" + "00" + "00" + "00" + "00" + "00",
		"json":             hex.EncodeToString([]byte(`{"component":"db"}`)),
	} {
		raw, err := hex.DecodeString(body)
		if err != nil {
			t.Fatal(err)
		}
		var d ReplDelta
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = DecodeDelta(raw, &d)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrReplGap) {
			t.Errorf("%s: err = %v, want ErrReplGap", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(raw), grew)
		}
	}
}
