package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"runtime"
	"strings"
	"testing"

	"fchain/internal/ingest"
)

// TestReplWirePinned pins the encoding of one tiny incremental frame, so a
// change to the replication wire format is a deliberate one: a peer of
// another version refuses what it cannot decode, and a silent change would
// leave mixed-version clusters resyncing forever.
func TestReplWirePinned(t *testing.T) {
	d := &ReplDelta{
		Component:  "db",
		Base:       map[string]int64{"cpu": 30, "gpu": 1}, // gpu is no metric: not encoded
		Samples:    map[string][]ReplRun{"cpu": {bitsRun(31, 1)}, "memory": nil},
		Sanitizers: map[string]ingest.State{"cpu": {N: 2, Mean: 1, Stats: ingest.Stats{Accepted: 2}}},
	}
	want := strings.Join([]string{
		"01",               // format
		"026462",           // component "db"
		"00",               // no full state
		"01" + "00" + "3c", // base: cpu at t=30
		"02" + "00" + "01" + "3e" + "08" + "000000000000f03f" + // samples: cpu, one run at t0=31 of 1.0
			"01" + "00", // memory, no runs
		"01" + "00" + "02" + "000000000000f03f" + "0000000000000000" + "00" + // sanitizers: cpu n=2 mean=1 m2=0 last_out=0
			"0000000000000000" + "00" + // last_val=0 has_out=false
			"02" + "0000000000000000", // stats: accepted=2, the other eight 0
	}, "")
	got := wireBytes(t, d)
	if hex.EncodeToString(got) != want {
		t.Fatalf("wire bytes\ngot  %x\nwant %s", got, want)
	}
	var back ReplDelta
	if err := DecodeDelta(got, &back); err != nil {
		t.Fatal(err)
	}
	if again := wireBytes(t, &back); !bytes.Equal(again, got) {
		t.Fatalf("decoded frame re-encodes as %x", again)
	}
	if back.Base["cpu"] != 30 || len(back.Base) != 1 || back.Samples["cpu"][0].value(0) != 1 ||
		back.Sanitizers["cpu"] != d.Sanitizers["cpu"] {
		t.Fatalf("decoded %+v", back)
	}
}

// TestDecodeDeltaRefusesBeforeAllocating: a body whose count or length claims
// more than the bytes left is refused with ErrReplGap before the decoder
// allocates for it, so a few bytes cannot make a standby allocate
// gigabytes.
func TestDecodeDeltaRefusesBeforeAllocating(t *testing.T) {
	huge := "ffffffff0f" // uvarint 4,294,967,295
	for name, body := range map[string]string{
		"component length": "01" + huge,
		"full count":       "01" + "00" + "06",
		"run count":        "01" + "00" + "00" + "00" + "01" + "00" + huge,
		"run length":       "01" + "00" + "00" + "00" + "01" + "00" + "01" + "02" + huge,
		"model rows":       "01" + "00" + "01" + "0163" + "01" + "50" + "000000000000f03f" + "0000000000000000" + "000000000000f03f" + "00" + huge,
		"row values":       "01" + "00" + "01" + "0163" + "01" + "50" + "000000000000f03f" + "0000000000000000" + "000000000000f03f" + "00" + "01" + huge,
		"sanitizer count":  "01" + "00" + "00" + "00" + "00" + "06",
		"format":           "02" + "00" + "00" + "00" + "00" + "00",
		"trailing bytes":   "01" + "00" + "00" + "00" + "00" + "00" + "00",
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
