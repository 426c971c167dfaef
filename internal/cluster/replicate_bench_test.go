package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"fchain/internal/core"
	"fchain/internal/metric"
)

// BenchmarkModuleReplicate times replication frames of one default-config
// component on the path a frame takes through the cluster, minus the
// sockets: the owner builds and encodes the frame and writeFrame sends it;
// the master's readFrame and relay writeFrame; the standby's readFrame,
// DecodeDelta and ApplyDelta. The incremental case is one tick of 600 new
// seconds of all six metrics on a warm monitor, reported per sample; the
// full case is the frame a standby resyncs from, every ring full, reported
// per frame. Both report the owner's frame bytes and check that the standby
// ends equal to the primary.
func BenchmarkModuleReplicate(b *testing.B) {
	const history, tick = 1440, 600
	value := func(t int64, k metric.Kind) float64 {
		return 50 + 20*math.Sin(float64(t)/(7+float64(k))) + float64(t%13)/17
	}
	primary := core.NewMonitor("db", core.Config{})
	feed := func(from, to int64) {
		for t := from; t <= to; t++ {
			for _, k := range metric.Kinds {
				if err := primary.Observe(t, k, value(t, k)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	feed(1, history)
	base := primary.Snapshot()
	feed(history+1, history+tick)

	var wire bufConn
	r := bufio.NewReaderSize(&wire.buf, 64<<10)
	// hop carries one frame's payload owner → master → standby and returns
	// the owner's frame bytes and the payload the standby reads.
	hop := func(payload []byte) (int, []byte) {
		ship := &envelope{Type: typeReplicate, ID: 1, Slave: "s1", Component: "db", Seq: 1, State: payload}
		if err := writeFrame(&wire, ship, 0); err != nil {
			b.Fatal(err)
		}
		frameBytes := wire.buf.Len()
		at, err := readFrame(r)
		if err != nil {
			b.Fatal(err)
		}
		relay := &envelope{Type: typeReplicate, Component: at.Component, Seq: at.Seq, State: at.State}
		if err := writeFrame(&wire, relay, 0); err != nil {
			b.Fatal(err)
		}
		got, err := readFrame(r)
		if err != nil {
			b.Fatal(err)
		}
		return frameBytes, got.State
	}
	apply := func(shadow *core.Monitor, state []byte) {
		var delta core.ReplDelta
		if err := core.DecodeDelta(state, &delta); err != nil {
			b.Fatal(err)
		}
		if err := shadow.ApplyDelta(&delta); err != nil {
			b.Fatal(err)
		}
	}
	same := func(shadow *core.Monitor) {
		want, _ := json.Marshal(primary.Snapshot())
		if got, _ := json.Marshal(shadow.Snapshot()); !bytes.Equal(got, want) {
			b.Fatal("the standby's shadow differs from the primary after the frame")
		}
	}

	b.Run("incremental", func(b *testing.B) {
		shadow := core.NewMonitor("db", core.Config{})
		var (
			d          core.ReplDelta
			enc        []byte
			frameBytes int
		)
		for range b.N {
			b.StopTimer()
			if err := shadow.Restore(base); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if changed, ok := primary.DeltaInto(&d, base.LastT); !changed || !ok {
				b.Fatalf("DeltaInto = (%v, %v), want an incremental delta", changed, ok)
			}
			var err error
			if enc, err = d.AppendBinary(enc[:0]); err != nil {
				b.Fatal(err)
			}
			var state []byte
			frameBytes, state = hop(enc)
			apply(shadow, state)
		}
		b.StopTimer()
		samples := float64(b.N * tick * metric.NumKinds)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
		b.ReportMetric(float64(frameBytes*b.N)/samples, "bytes/sample")
		same(shadow)
	})

	b.Run("full", func(b *testing.B) {
		shadow := core.NewMonitor("db", core.Config{})
		var (
			d          core.ReplDelta
			frameBytes int
		)
		b.ReportAllocs()
		for range b.N {
			if full, _, changed := primary.FrameInto(&d, nil); full == nil || !changed {
				b.Fatal("FrameInto(nil floors) built no full frame")
			}
			payload, err := d.AppendBinary(nil)
			if err != nil {
				b.Fatal(err)
			}
			var state []byte
			frameBytes, state = hop(payload)
			apply(shadow, state)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
		b.ReportMetric(float64(frameBytes), "bytes/frame")
		same(shadow)
	})
}
