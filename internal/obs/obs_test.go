package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// SetClock overrides the journal's timestamp source (tests pin it for
// deterministic journals).
func (j *Journal) SetClock(clock func() int64) {
	if j == nil || clock == nil {
		return
	}
	j.mu.Lock()
	j.clock = clock
	j.mu.Unlock()
}

// SetClock overrides the timestamp source (tests pin it for deterministic
// output).
func (l *Logger) SetClock(clock func() time.Time) {
	if l == nil || clock == nil {
		return
	}
	l.mu.Lock()
	l.clock = clock
	l.mu.Unlock()
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Count
}

func TestTraceSpansAndAttrs(t *testing.T) {
	tr := NewTrace("localize", 1700)
	root := tr.Start(-1, "localize")
	child := tr.Start(root, "analyze")
	tr.AttrInt(child, "tasks", 6)
	tr.AttrFloat(child, "score", 0.25)
	tr.AttrBool(child, "parallel", true)
	tr.Attr(child, "mode", "serial")
	tr.End(child)
	tr.End(root)

	if got := tr.SpanCount(); got != 2 {
		t.Fatalf("SpanCount = %d, want 2", got)
	}
	s := tr.Find("analyze")
	if s == nil {
		t.Fatal("Find(analyze) = nil")
	}
	if s.Parent != root {
		t.Errorf("analyze parent = %d, want %d", s.Parent, root)
	}
	for _, tc := range []struct{ key, want string }{
		{"tasks", "6"}, {"score", "0.25"}, {"parallel", "true"}, {"mode", "serial"},
	} {
		if got, ok := s.Attr(tc.key); !ok || got != tc.want {
			t.Errorf("Attr(%s) = %q,%v want %q", tc.key, got, ok, tc.want)
		}
	}
	if _, ok := s.Attr("missing"); ok {
		t.Error("Attr(missing) reported present")
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	id := tr.Start(-1, "x")
	if id != -1 {
		t.Fatalf("nil Start = %d, want -1", id)
	}
	tr.End(id)
	tr.Attr(id, "k", "v")
	tr.AttrInt(id, "k", 1)
	tr.Graft(0, NewTrace("sub", 0))
	if tr.SpanCount() != 0 || tr.Find("x") != nil || tr.FindAll("x") != nil {
		t.Error("nil trace reported content")
	}
	if tr.Normalize() != nil {
		t.Error("nil Normalize != nil")
	}
	if got := tr.String(); got != "<no trace>" {
		t.Errorf("nil String = %q", got)
	}
}

func TestTraceGraftRemapsIDs(t *testing.T) {
	main := NewTrace("localize", 10)
	root := main.Start(-1, "localize")
	comp := main.Start(root, "component:web")

	sub := NewTrace("task", 10)
	sel := sub.Start(-1, "select:cpu")
	det := sub.Start(sel, "detect")
	sub.AttrInt(det, "points", 3)
	sub.End(det)
	sub.End(sel)

	main.Graft(comp, sub)
	main.End(comp)
	main.End(root)

	if got := main.SpanCount(); got != 4 {
		t.Fatalf("SpanCount = %d, want 4", got)
	}
	selSpan := main.Find("select:cpu")
	if selSpan == nil || selSpan.Parent != comp {
		t.Fatalf("select:cpu parent = %+v, want parent %d", selSpan, comp)
	}
	detSpan := main.Find("detect")
	if detSpan == nil || detSpan.Parent != selSpan.ID {
		t.Fatalf("detect parent = %+v, want parent %d", detSpan, selSpan.ID)
	}
	if detSpan.ID != detSpan.ID || main.Spans[detSpan.ID].Name != "detect" {
		t.Error("span ID is not its index")
	}
}

func TestTraceNormalizeZeroesTimings(t *testing.T) {
	tr := NewTrace("x", 1)
	id := tr.Start(-1, "op")
	time.Sleep(time.Millisecond)
	tr.End(id)
	if tr.Spans[id].DurNS == 0 {
		t.Skip("clock did not advance")
	}
	tr.Normalize()
	for _, s := range tr.Spans {
		if s.StartNS != 0 || s.DurNS != 0 {
			t.Fatalf("normalized span has timing: %+v", s)
		}
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2)
	if r.Last() != nil {
		t.Fatal("empty ring Last != nil")
	}
	a, b, c := NewTrace("a", 1), NewTrace("b", 2), NewTrace("c", 3)
	r.Add(a)
	r.Add(b)
	r.Add(c) // evicts a
	if got := r.Last(); got != c {
		t.Fatalf("Last = %v, want c", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0] != b || snap[1] != c {
		t.Fatalf("Snapshot = %v, want [b c]", snap)
	}
	var nilRing *TraceRing
	nilRing.Add(a)
	if nilRing.Last() != nil || nilRing.Snapshot() != nil {
		t.Error("nil ring reported content")
	}
}

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter non-zero")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge non-zero")
	}
	real := &Counter{}
	real.Inc()
	real.Add(2)
	real.Add(-7) // negative ignored
	if got := real.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
}

func TestHistogramObserveAndMerge(t *testing.T) {
	h := &Histogram{}
	h.Observe(1)    // bucket 0
	h.Observe(1000) // bucket 9
	h.Observe(-5)   // clamped to 0 -> bucket 0
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	ext := LatencyHist{Count: 5, SumNS: 12345, MaxNS: 99999}
	ext.Buckets[2] = 4
	ext.Buckets[HistBuckets-1] = 1
	h.Merge(ext)
	snap := h.snapshot()
	buckets, count := snap.Buckets, snap.Count
	if count != 8 {
		t.Fatalf("merged count = %d, want 8", count)
	}
	if buckets[2] != 4 || buckets[HistBuckets-1] != 1 {
		t.Fatalf("merge misplaced buckets: b2=%d overflow=%d", buckets[2], buckets[HistBuckets-1])
	}
	var nilH *Histogram
	nilH.Observe(1)
	nilH.Merge(ext)
	if nilH.Count() != 0 {
		t.Error("nil histogram non-zero")
	}
}

func TestLog2Bucket(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
		{-1, 0}, {1 << 50, HistBuckets - 1},
	} {
		if got := log2Bucket(tc.ns); got != tc.want {
			t.Errorf("log2Bucket(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

// TestMetricsEndpoint is the acceptance test for the /metrics surface: an
// httptest request against the registry handler must expose the pipeline's
// ingest/selection/diagnose counters and latency histograms in Prometheus
// text format.
func TestMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fchain_ingest_samples_total", "Samples ingested.").Add(42)
	reg.Counter("fchain_selection_runs_total", "Change-point selection passes.").Inc()
	reg.Counter("fchain_diagnose_total", "Diagnosis passes.").Inc()
	reg.CounterWith("fchain_localize_total", "Localize calls by outcome.",
		map[string]string{"outcome": "ok"}).Add(3)
	reg.Gauge("fchain_slaves_alive", "Live slaves.").Set(2)
	reg.Histogram("fchain_selection_latency_ns", "Selection latency.").Observe(1500)
	reg.HistogramWith("fchain_localize_latency_ns", "Localize latency.",
		map[string]string{"phase": "diagnose"}).Observe(3000)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE fchain_ingest_samples_total counter",
		"fchain_ingest_samples_total 42",
		"fchain_selection_runs_total 1",
		"fchain_diagnose_total 1",
		`fchain_localize_total{outcome="ok"} 3`,
		"# TYPE fchain_slaves_alive gauge",
		"fchain_slaves_alive 2",
		"# TYPE fchain_selection_latency_ns histogram",
		"fchain_selection_latency_ns_count 1",
		`fchain_localize_latency_ns_bucket{phase="diagnose",le="+Inf"} 1`,
		"fchain_localize_latency_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Deterministic output: two renders must be identical.
	var a, c bytes.Buffer
	if err := reg.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteProm(&c); err != nil {
		t.Fatal(err)
	}
	if a.String() != c.String() {
		t.Error("WriteProm output differs between renders")
	}
}

func TestRegistryIdempotentAndNil(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total", "")
	c2 := reg.Counter("x_total", "")
	if c1 != c2 {
		t.Error("Counter not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	var nilReg *Registry
	if nilReg.Counter("a", "") != nil || nilReg.Gauge("b", "") != nil || nilReg.Histogram("c", "") != nil {
		t.Error("nil registry returned non-nil metric")
	}
	if err := nilReg.WriteProm(io.Discard); err != nil {
		t.Error(err)
	}
	reg.Gauge("x_total", "") // panics: registered as counter
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("conc_total", "").Inc()
				reg.Histogram("conc_ns", "").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("conc_total", "").Value(); got != 800 {
		t.Errorf("concurrent counter = %d, want 800", got)
	}
	if got := reg.Histogram("conc_ns", "").Count(); got != 800 {
		t.Errorf("concurrent histogram count = %d, want 800", got)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var now int64 = 1000
	j.SetClock(func() int64 { now++; return now })
	if err := j.Record("localize_start", map[string]int64{"tv": 1700}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("verdict", map[string]string{"culprit": "web1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("note", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("read %d events, want 3", len(events))
	}
	if events[0].Seq != 1 || events[1].Seq != 2 || events[2].Seq != 3 {
		t.Errorf("bad sequence: %+v", events)
	}
	if events[0].Type != "localize_start" || events[0].TS != 1001 {
		t.Errorf("event 0 = %+v", events[0])
	}
	var payload struct {
		TV int64 `json:"tv"`
	}
	if err := json.Unmarshal(events[0].Data, &payload); err != nil || payload.TV != 1700 {
		t.Errorf("payload = %+v err=%v", payload, err)
	}
	if len(events[2].Data) != 0 {
		t.Errorf("nil payload marshaled as %q", events[2].Data)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("ok", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append a partial line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"ts_unix`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(events) != 1 || events[0].Type != "ok" {
		t.Fatalf("events = %+v, want the one complete event", events)
	}
}

func TestJournalMalformedCompleteLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("malformed complete line did not error")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Record("x", nil); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	if j.Path() != "" {
		t.Error("nil journal has a path")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q, want second", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestLoggerFormatAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	fixed := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	l.SetClock(func() time.Time { return fixed })
	l.Debug("hidden")
	l.Info("slave registered", "slave", "host1", "lag", 250*time.Millisecond)
	l.Warn("needs quoting", "err", "connection refused")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug line emitted at info level")
	}
	wantInfo := `ts=2026-08-05T12:00:00.000Z level=info msg="slave registered" slave=host1 lag=250ms`
	if !strings.Contains(out, wantInfo) {
		t.Errorf("info line missing\nwant %q\ngot  %q", wantInfo, out)
	}
	if !strings.Contains(out, `err="connection refused"`) {
		t.Errorf("value with space not quoted: %q", out)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", "k", "v")
	l.Warn("x")
	l.Error("x")
	l.SetClock(time.Now)
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
	}{
		{"debug", LevelDebug}, {"INFO", LevelInfo}, {"warn", LevelWarn},
		{"warning", LevelWarn}, {"error", LevelError}, {"bogus", LevelInfo}, {"", LevelInfo},
	} {
		if got := ParseLevel(tc.in); got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fchain_ingest_samples_total", "Samples.").Add(7)
	ring := NewTraceRing(4)
	srv, err := StartDebug("127.0.0.1:0", DebugConfig{
		Registry: reg,
		Traces:   ring,
		Health:   func() any { return map[string]int{"slaves": 2} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "fchain_ingest_samples_total 7") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"status": "ok"`) || !strings.Contains(body, `"slaves": 2`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/trace/last"); code != http.StatusNotFound {
		t.Errorf("/trace/last before any trace = %d, want 404", code)
	}
	tr := NewTrace("localize", 1700)
	id := tr.Start(-1, "localize")
	tr.End(id)
	ring.Add(tr)
	if code, body := get("/trace/last"); code != http.StatusOK || !strings.Contains(body, `"name": "localize"`) {
		t.Errorf("/trace/last = %d %q", code, body)
	}
	if code, body := get("/trace/all"); code != http.StatusOK || !strings.Contains(body, `"tv": 1700`) {
		t.Errorf("/trace/all = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestSinkNilSafe(t *testing.T) {
	var s *Sink
	if s.Logger() != nil || s.Registry() != nil || s.TraceRing() != nil || s.EventJournal() != nil {
		t.Error("nil sink returned non-nil component")
	}
	full := &Sink{Log: NewLogger(io.Discard, LevelInfo), Metrics: NewRegistry(), Traces: NewTraceRing(1)}
	if full.Logger() == nil || full.Registry() == nil || full.TraceRing() == nil {
		t.Error("sink dropped components")
	}
	if full.EventJournal() != nil {
		t.Error("sink invented a journal")
	}
}
