package core

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"testing"

	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// FuzzApplyDelta decodes arbitrary bytes as a replication frame and applies
// it to a trained shadow. Whatever the frame, ApplyDelta must not panic, and
// a frame it accepts must leave a history Observe could have built: the
// next second is accepted on every observed metric, every ring is strictly
// ascending after it, and the Snapshot restores into a fresh monitor and
// snapshots back to the same bytes.
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
	base := primary.Snapshot()
	floors := make(map[string]int64, len(base.LastT))
	for name, t := range base.LastT {
		floors[name] = t
	}
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
	withCPU := func(runs ...ReplRun) *ReplDelta {
		d := inc
		d.Samples = maps.Clone(inc.Samples)
		d.Samples["cpu"] = runs
		return &d
	}
	cpu := inc.Samples["cpu"][0]
	// Full frames, whole and with cpu's entry bent: a ragged error-ring
	// run, error times one second off the sample times, a sample run
	// overflowing the timestamp, and last_t with no runs at all.
	fullWith := func(bend func(f *ReplMetric)) *ReplDelta {
		var d ReplDelta
		primary.FrameInto(&d, nil)
		for i := range d.Full {
			if d.Full[i].Metric == "cpu" {
				bend(&d.Full[i])
			}
		}
		return &d
	}
	seeds := []*ReplDelta{
		fullWith(func(*ReplMetric) {}),
		fullWith(func(f *ReplMetric) { f.Errs[0].V = f.Errs[0].V[:len(f.Errs[0].V)-3] }),
		fullWith(func(f *ReplMetric) { f.Errs[0].T0++ }),
		fullWith(func(f *ReplMetric) { f.Samples[0].T0 = math.MaxInt64 - 1 }),
		fullWith(func(f *ReplMetric) { f.Samples, f.Errs = nil, nil }),
		&inc,
		withCPU(ReplRun{T0: cpu.T0, V: cpu.V[:len(cpu.V)-3]}),
		withCPU(ReplRun{T0: math.MaxInt64 - int64(cpu.n()-1), V: cpu.V}),
		withCPU(ReplRun{T0: math.MaxInt64 - 1, V: cpu.V}),
		withCPU(ReplRun{T0: cpu.T0, V: cpu.V[:16]}, ReplRun{T0: cpu.T0 + 5, V: cpu.V[16:]}),
	}
	for _, d := range seeds {
		raw, err := json.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var d ReplDelta
		if json.Unmarshal(data, &d) != nil {
			return
		}
		shadow := NewMonitor("db", cfg)
		if err := shadow.Restore(base); err != nil {
			t.Fatal(err)
		}
		if shadow.ApplyDelta(&d) != nil {
			return
		}
		for name, last := range shadow.Snapshot().LastT {
			k, err := metric.ParseKind(name)
			if err != nil {
				t.Fatal(err)
			}
			if last == math.MaxInt64 {
				continue // no later second exists
			}
			if err := shadow.Observe(last+1, k, 1); err != nil {
				t.Fatalf("Observe after last_t %d: %v", last, err)
			}
		}
		snap := shadow.Snapshot()
		for _, rings := range []map[string]timeseries.RingSnapshot{snap.Samples, snap.Errs} {
			for name, r := range rings {
				for i := 1; i < len(r.Times); i++ {
					if r.Times[i] <= r.Times[i-1] {
						t.Fatalf("%s ring times %v do not ascend", name, r.Times)
					}
				}
			}
		}
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewMonitor("db", cfg)
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("accepted state does not restore: %v", err)
		}
		if got := monitorJSON(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("Snapshot → Restore → Snapshot differs:\ngot  %s\nwant %s", got, want)
		}
	})
}
