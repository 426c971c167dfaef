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

// TestQuarantineRecordsPanicValue: a selection kernel that panics names what
// it panicked with, on the traced select:<metric> span and on the slave's
// quarantine journal event.
func TestQuarantineRecordsPanicValue(t *testing.T) {
	const sentinel = "sentinel: poisoned cpu stream"
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	sink, err := obs.NewSink(io.Discard, "error", journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.EventJournal().Close()
	sl := NewSlave("h", []string{"a"}, core.Config{}, WithSlaveObs(sink))
	defer sl.Close()
	for ts := int64(0); ts < 300; ts++ {
		for _, k := range metric.Kinds {
			if err := sl.Observe("a", ts, k, float64(40+ts%13)); err != nil {
				t.Fatal(err)
			}
		}
	}
	core.SetAnalyzeHook(func(component string, k metric.Kind) {
		if k == metric.CPU {
			panic(sentinel)
		}
	})
	defer core.SetAnalyzeHook(nil)
	sl.Analyze(299)

	tr := sink.TraceRing().Last()
	if tr == nil {
		t.Fatal("analyze left no trace")
	}
	span := tr.Find("select:" + metric.CPU.String())
	if span == nil {
		t.Fatalf("no select:cpu span in %s", tr)
	}
	if got, _ := span.Attr("panic"); got != sentinel {
		t.Errorf("select:cpu panic attribute = %q, want %q", got, sentinel)
	}

	events, err := obs.ReadJournalFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events {
		if ev.Type != "quarantine" {
			continue
		}
		var data struct {
			Panic string `json:"panic"`
		}
		if err := json.Unmarshal(ev.Data, &data); err != nil {
			t.Fatal(err)
		}
		if data.Panic != sentinel {
			t.Errorf("quarantine event panic = %q, want %q", data.Panic, sentinel)
		}
		found = true
	}
	if !found {
		t.Fatal("no quarantine event journaled")
	}
}
