package cluster

import (
	"encoding/json"
	"io"
	"path/filepath"
	"testing"

	"fchain/internal/core"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// TestSlaveStreamingMetrics: a streaming slave exports the streaming-state
// gauges and the cold-fallback counter, and the journal's analyze records
// reconcile with the registry — the last journaled snapshot matches the
// gauges exactly and the counter equals the last journaled monotone total.
func TestSlaveStreamingMetrics(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	sink, err := obs.NewSink(io.Discard, "error", journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.EventJournal().Close()

	cfg := core.DefaultConfig()
	cfg.Streaming = true
	sl := NewSlave("h", []string{"a", "b"}, cfg, WithSlaveObs(sink))
	defer sl.Close()
	feed := func(from, to int64) {
		for ts := from; ts <= to; ts++ {
			for _, comp := range []string{"a", "b"} {
				for _, k := range metric.Kinds {
					if err := sl.Observe(comp, ts, k, float64(40+ts%13)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	feed(1, 400)
	sl.Analyze(400)
	// A historical analysis is a guaranteed cold fallback per warm stream.
	sl.Analyze(300)
	feed(401, 450)
	sl.Analyze(450)

	reg := sink.Registry()
	bytesGauge := reg.Gauge("fchain_streaming_bytes", "").Value()
	if bytesGauge <= 0 {
		t.Fatalf("fchain_streaming_bytes = %v, want > 0", bytesGauge)
	}
	colds := reg.Counter("fchain_streaming_cold_total", "").Value()
	if colds == 0 {
		t.Fatal("fchain_streaming_cold_total = 0, want > 0 after historical analysis")
	}

	// Reconcile against the journal: every analyze record carries the
	// streaming snapshot that was exported with it.
	events, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	var lastBytes, lastColds float64
	analyzed := 0
	for _, ev := range events {
		if ev.Type != "analyze" {
			continue
		}
		var data map[string]any
		if err := json.Unmarshal(ev.Data, &data); err != nil {
			t.Fatal(err)
		}
		b, okB := data["streaming_bytes"].(float64)
		c, okC := data["streaming_cold_total"].(float64)
		if !okB || !okC {
			t.Fatalf("analyze record missing streaming fields: %s", ev.Data)
		}
		if c < lastColds {
			t.Fatalf("journaled streaming_cold_total regressed: %v -> %v", lastColds, c)
		}
		lastBytes, lastColds = b, c
		analyzed++
	}
	if analyzed != 3 {
		t.Fatalf("journal has %d analyze records, want 3", analyzed)
	}
	if lastBytes != bytesGauge {
		t.Fatalf("journal streaming_bytes %v != gauge %v", lastBytes, bytesGauge)
	}
	if float64(colds) != lastColds {
		t.Fatalf("counter %d != journaled monotone total %v", colds, lastColds)
	}
}

// TestSlaveStreamingMetricsOff: without Config.Streaming the streaming
// metrics are never registered and analyze records carry no streaming fields.
func TestSlaveStreamingMetricsOff(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	sink, err := obs.NewSink(io.Discard, "error", journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.EventJournal().Close()

	sl := NewSlave("h", []string{"a"}, core.DefaultConfig(), WithSlaveObs(sink))
	defer sl.Close()
	for ts := int64(1); ts <= 300; ts++ {
		for _, k := range metric.Kinds {
			if err := sl.Observe("a", ts, k, float64(40+ts%13)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sl.Analyze(300)
	events, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Type != "analyze" {
			continue
		}
		var data map[string]any
		if err := json.Unmarshal(ev.Data, &data); err != nil {
			t.Fatal(err)
		}
		if _, ok := data["streaming_bytes"]; ok {
			t.Fatalf("non-streaming analyze record carries streaming fields: %s", ev.Data)
		}
	}
}
