package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fchain/internal/markov"
	"fchain/internal/metric"
)

// FuzzApplyDelta decodes arbitrary bytes as a replication body and applies
// it to a trained shadow. Whatever the bytes, neither DecodeDelta nor
// ApplyDelta may panic. A body DecodeDelta accepts must survive decode →
// encode → decode unchanged, and a frame ApplyDelta accepts must leave a
// history Observe could have built: the next second is accepted on every
// observed metric, every ring is strictly ascending after it with the error
// ring at the sample ring's times, and the full frame applies to a fresh
// monitor, which encodes its own full frame to the same bytes.
func FuzzApplyDelta(f *testing.F) {
	// Eight bins keep the full-frame seeds under 7 KB: the fuzzer minimizes
	// every new interesting input, and with 40-bin models a 15 KB full
	// frame took whole short runs to minimize.
	cfg := Config{RingCapacity: 24, MarkovBins: 8}
	primary := NewMonitor("db", cfg)
	ts := int64(1)
	for ; ts <= 30; ts++ {
		feedAll(f, primary, ts)
	}
	var base ReplDelta
	primary.fullInto(&base)
	floors := shipped(&base)
	for ; ts <= 34; ts++ {
		feedAll(f, primary, ts)
	}
	var inc ReplDelta
	if changed, ok := primary.DeltaInto(&inc, floors); !changed || !ok {
		f.Fatalf("DeltaInto changed=%v ok=%v, want true true", changed, ok)
	}
	// Malformed and edge-case runs on cpu, the rest of inc unchanged: ragged
	// value bytes, a run ending exactly at MaxInt64, one that would run past
	// it, and two runs across a gap.
	withCPU := func(runs ...ReplRun) []byte {
		d := inc
		d.Metrics[0].Runs = runs
		return wireBytes(f, &d)
	}
	cpu := inc.Metrics[0].Runs[0]
	// Full frames, whole and with cpu's entry bent: a ragged error-ring
	// run, error times one second off the sample times, a sample run
	// overflowing the timestamp, last_t with no runs at all, and a metric
	// this version does not know, which the decoder refuses.
	fullWith := func(bend func(s *ReplMetric), bendBody func(p *fullParts)) []byte {
		var d ReplDelta
		primary.FrameInto(&d, new(Floors))
		bend(cpuEntry(&d))
		p := splitFull(f, &d)
		bendBody(p)
		return p.join(&d)
	}
	same := func(*ReplMetric) {}
	whole := func(*fullParts) {}
	seeds := [][]byte{
		fullWith(same, whole),
		fullWith(func(s *ReplMetric) { s.Runs[0].E = s.Runs[0].E[:len(s.Runs[0].E)-3] }, whole),
		fullWith(same, func(p *fullParts) { p.errs[0][0].T0++ }),
		fullWith(func(s *ReplMetric) { s.Runs[0].T0 = math.MaxInt64 - 1 }, whole),
		fullWith(func(s *ReplMetric) { s.Runs = nil }, whole),
		wireBytes(f, &inc),
		withCPU(ReplRun{T0: cpu.T0, V: cpu.V[:len(cpu.V)-3]}),
		withCPU(ReplRun{T0: math.MaxInt64 - int64(cpu.n()-1), V: cpu.V}),
		withCPU(ReplRun{T0: math.MaxInt64 - 1, V: cpu.V}),
		withCPU(ReplRun{T0: cpu.T0, V: cpu.V[:16]}, ReplRun{T0: cpu.T0 + 5, V: cpu.V[16:]}),
		fullWith(same, func(p *fullParts) { p.names[0] = "gpu" }),
	}
	for _, bend := range modelBends {
		seeds = append(seeds, fullWith(func(s *ReplMetric) { bend(s.Model) }, whole))
	}
	var full ReplDelta
	primary.FrameInto(&full, new(Floors))
	seeds = append(seeds, cellsPastBytes(f, &full))
	for _, seed := range seeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var d ReplDelta
		if DecodeDelta(data, &d) != nil {
			return
		}
		// Compared as encodings: a NaN field is equal to nothing, itself
		// included, but its bits are.
		once := wireBytes(t, &d)
		if again := wireBytes(t, overWire(t, &d)); !bytes.Equal(again, once) {
			t.Fatalf("decode → encode → decode changed the frame:\nonce  %x\nagain %x", once, again)
		}
		shadow := NewMonitor("db", cfg)
		if err := shadow.ApplyDelta(&base); err != nil {
			t.Fatal(err)
		}
		if shadow.ApplyDelta(&d) != nil {
			return
		}
		for _, k := range metric.Kinds {
			sh := &shadow.shards[k]
			if !sh.hasLast || sh.lastT == math.MaxInt64 {
				continue // never observed, or no later second exists
			}
			if err := shadow.Observe(sh.lastT+1, k, 1); err != nil {
				t.Fatalf("Observe after last_t %d: %v", sh.lastT, err)
			}
		}
		for _, k := range metric.Kinds {
			samples, errs := shadow.shards[k].samples, shadow.shards[k].errs
			if samples.Len() != errs.Len() {
				t.Fatalf("%s holds %d samples and %d errors", k, samples.Len(), errs.Len())
			}
			var prev int64
			for i := range samples.Len() {
				ts, _ := samples.At(i)
				if i > 0 && ts <= prev {
					t.Fatalf("%s ring times %d, %d do not ascend", k, prev, ts)
				}
				if te, _ := errs.At(i); te != ts {
					t.Fatalf("%s error %d at t=%d, sample at t=%d", k, i, te, ts)
				}
				prev = ts
			}
		}
		var full ReplDelta
		shadow.fullInto(&full)
		want := wireBytes(t, &full)
		fresh := NewMonitor("db", cfg)
		if err := fresh.ApplyDelta(&full); err != nil {
			t.Fatalf("accepted state does not apply as a full frame: %v", err)
		}
		if got := frameBytes(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("full frame → ApplyDelta → full frame differs:\ngot  %x\nwant %x", got, want)
		}
	})
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader,
// decodeCheckpoint then applyFull, twice: as they are, and resealed with
// the checksum their body needs, so that mutations reach the frame decoder
// and applyFull instead of stopping at the checksum. Whatever the bytes,
// nothing may panic. A refused file leaves a fresh monitor's full frame
// unchanged. An accepted one saves back to the identical bytes, unless one
// of its rings held more samples than the monitor's RingCapacity, which
// keeps only the newest: that save must then load and save back to itself.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := Config{RingCapacity: 24, MarkovBins: 8}
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v3.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), v3...)
	flipped[checkpointHeader-1] ^= 0x80
	primary := NewMonitor("db", cfg)
	for ts := int64(1); ts <= 20; ts++ {
		feedAll(f, primary, ts)
	}
	var base ReplDelta
	primary.fullInto(&base)
	floors := shipped(&base)
	for ts := int64(21); ts <= 24; ts++ {
		feedAll(f, primary, ts)
	}
	var inc ReplDelta
	if changed, ok := primary.DeltaInto(&inc, floors); !changed || !ok {
		f.Fatalf("DeltaInto changed=%v ok=%v, want true true", changed, ok)
	}
	for _, seed := range [][]byte{v1, v2, v2[:len(v2)/2], flipped, sealCheckpoint(wireBytes(f, &inc)), primary.encodeCheckpoint()} {
		f.Add(seed)
	}
	for _, seed := range [][]byte{v3, v3[:len(v3)/2]} {
		f.Add(seed)
	}
	// Checkpoints of bent models, sealed with the checksum their body needs.
	for _, bend := range modelBends {
		var d ReplDelta
		primary.fullInto(&d)
		bend(cpuEntry(&d).Model)
		f.Add(sealCheckpoint(wireBytes(f, &d)))
	}
	var full ReplDelta
	primary.fullInto(&full)
	f.Add(sealCheckpoint(cellsPastBytes(f, &full)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		check := func(raw []byte) {
			m := NewMonitor("db", cfg)
			fresh := frameBytes(t, m)
			var d ReplDelta
			err := decodeCheckpoint(raw, &d)
			if err == nil {
				err = m.applyFull(&d)
			}
			if err != nil {
				if !bytes.Equal(frameBytes(t, m), fresh) {
					t.Fatalf("refused checkpoint (%v) changed the monitor", err)
				}
				return
			}
			saved := m.encodeCheckpoint()
			if bytes.Equal(saved, raw) {
				return
			}
			if !overCapacity(&d, cfg.RingCapacity) {
				t.Fatalf("accepted checkpoint saves back differently:\ngot  %x\nwant %x", saved, raw)
			}
			again := NewMonitor("db", cfg)
			if err := loadBytes(again, saved); err != nil {
				t.Fatalf("a trimmed checkpoint's save does not load: %v", err)
			}
			if !bytes.Equal(again.encodeCheckpoint(), saved) {
				t.Fatal("a trimmed checkpoint's save does not save back to itself")
			}
		}
		check(raw)
		if len(raw) >= checkpointHeader {
			resealed := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(resealed[checkpointHeader-4:], crc32.ChecksumIEEE(resealed[checkpointHeader:]))
			check(resealed)
		}
	})
}

// modelBends bend a model of 8 bins each a way the model section's decoder
// or markov.FromSnapshot must refuse: a mask bit at Bins (with a cell for
// it), a mask word short, a cell more than the mask has bits, a negative,
// a NaN and an infinite cell, a row sum short, and a row total that
// disagrees with its cells.
var modelBends = []func(m *markov.Snapshot){
	func(m *markov.Snapshot) {
		m.Cells = slices.Insert(m.Cells, bits.OnesCount64(m.Mask[0]), 0)
		m.Mask[0] |= 1 << m.Bins
	},
	func(m *markov.Snapshot) { m.Mask = m.Mask[:len(m.Mask)-1] },
	func(m *markov.Snapshot) { m.Cells = append(m.Cells, 0) },
	func(m *markov.Snapshot) { m.Cells[0] = -1 },
	func(m *markov.Snapshot) { m.Cells[0] = math.NaN() },
	func(m *markov.Snapshot) { m.Cells[0] = math.Inf(1) },
	func(m *markov.Snapshot) { m.RowSums = m.RowSums[:len(m.RowSums)-1] },
	func(m *markov.Snapshot) { m.RowSums[len(m.RowSums)-1]++ },
}

// cellsPastBytes returns full frame d's body cut where cpu's model's cells
// begin, there claiming 65,536 cells: within the decoder's limit, and more
// than the bytes left.
func cellsPastBytes(tb testing.TB, d *ReplDelta) []byte {
	tb.Helper()
	body, cells := wireBytes(tb, d), cpuEntry(d).Model.Cells
	at := bytes.Index(body, appendF64(binary.AppendUvarint(nil, uint64(len(cells))), cells...))
	if len(cells) == 0 || at < 0 {
		tb.Fatal("no cpu cells to cut the body at")
	}
	return binary.AppendUvarint(body[:at:at], 1<<16)
}

// overCapacity reports whether a full frame holds a ring of more than
// capacity samples.
func overCapacity(d *ReplDelta, capacity int) bool {
	for i := range d.Metrics {
		n := 0
		for _, r := range d.Metrics[i].Runs {
			n += r.n()
		}
		if n > capacity {
			return true
		}
	}
	return false
}
