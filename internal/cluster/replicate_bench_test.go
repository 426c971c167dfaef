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

// BenchmarkModuleReplicate times one replication tick of one component —
// 600 new seconds of all six metrics on a warm default-config monitor — on
// the path a replicated sample takes through the cluster, minus the sockets:
// the owner's DeltaInto, marshal and writeFrame; the master's readFrame and
// relay writeFrame; the standby's readFrame, Unmarshal and ApplyDelta. It
// reports ns/sample and the owner's frame bytes/sample.
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

	shadow := core.NewMonitor("db", core.Config{})
	var (
		d          core.ReplDelta
		wire       bufConn
		frameBytes int
	)
	r := bufio.NewReaderSize(&wire.buf, 64<<10)
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		if err := shadow.Restore(base); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if changed, ok := primary.DeltaInto(&d, base.LastT); !changed || !ok {
			b.Fatalf("DeltaInto = (%v, %v), want an incremental delta", changed, ok)
		}
		payload, err := json.Marshal(&d)
		if err != nil {
			b.Fatal(err)
		}
		ship := &envelope{Type: typeReplicate, ID: 1, Slave: "s1", Component: "db", Seq: 1, State: payload}
		if err := writeFrame(&wire, ship, 0); err != nil {
			b.Fatal(err)
		}
		frameBytes = wire.buf.Len()
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
		var delta core.ReplDelta
		if err := json.Unmarshal(got.State, &delta); err != nil {
			b.Fatal(err)
		}
		if err := shadow.ApplyDelta(&delta); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	samples := float64(b.N * tick * metric.NumKinds)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
	b.ReportMetric(float64(frameBytes*b.N)/samples, "bytes/sample")

	want, _ := json.Marshal(primary.Snapshot())
	if got, _ := json.Marshal(shadow.Snapshot()); !bytes.Equal(got, want) {
		b.Fatal("the standby's shadow differs from the primary after the tick")
	}
}
