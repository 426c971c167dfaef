// Package obs is FChain's observability layer: a lightweight span tracer
// with a ring-buffered in-memory exporter, a counter/gauge/histogram
// registry rendered in Prometheus text format, a JSONL event journal, a
// leveled key=value logger, and an opt-in HTTP debug server that exposes
// all of them.
//
// The package is designed around two constraints:
//
//   - Disabled must be free. Every recording type is nil-receiver safe, so
//     instrumented code passes nil sinks on the hot path and pays only a
//     pointer test — the analysis kernels stay allocation-free and within
//     the benchmark regression budget when observability is off.
//   - Traces must be deterministic in structure. The parallel analysis
//     engine records each task into a private sub-trace and grafts them in
//     canonical order, so the span tree (names, parents, attributes) is
//     bit-identical to the serial path at any worker count; only the
//     timings differ, and Normalize zeroes those for golden comparisons.
package obs

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are stored as strings
// so a marshaled trace is deterministic and diffable.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed operation in a pipeline trace. IDs are indices into the
// owning trace's span slice; Parent is -1 for a root span.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // offset from the trace's start
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it is present.
func (s *Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Trace is one pipeline execution's span tree. It is built by exactly one
// goroutine at a time (the parallel engine gives each worker its own trace
// and grafts them afterwards); a nil *Trace disables every method, which is
// how instrumented code runs untraced for free.
type Trace struct {
	// Name identifies the traced operation ("localize", "analyze", ...).
	Name string `json:"name"`
	// TV is the SLO-violation time the pipeline ran for.
	TV int64 `json:"tv"`
	// Spans holds the span tree in creation order; a span's ID is its index.
	Spans []Span `json:"spans"`

	start time.Time
}

// NewTrace starts a trace for the named operation at violation time tv.
func NewTrace(name string, tv int64) *Trace {
	return &Trace{Name: name, TV: tv, start: time.Now()}
}

// Start opens a child span of parent (-1 for a root span) and returns its
// ID. On a nil trace it returns -1, which every other method accepts.
func (t *Trace) Start(parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.Spans)
	t.Spans = append(t.Spans, Span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartNS: time.Since(t.start).Nanoseconds(),
	})
	return id
}

// End closes span id, recording its duration.
func (t *Trace) End(id int) {
	if t == nil || id < 0 || id >= len(t.Spans) {
		return
	}
	t.Spans[id].DurNS = time.Since(t.start).Nanoseconds() - t.Spans[id].StartNS
}

// SetInterval gives span id an interval measured elsewhere — on another
// goroutine, or across the wire — in place of the one its Start and End
// calls would record.
func (t *Trace) SetInterval(id int, start time.Time, dur time.Duration) {
	if t == nil || id < 0 || id >= len(t.Spans) {
		return
	}
	t.Spans[id].StartNS = start.Sub(t.start).Nanoseconds()
	t.Spans[id].DurNS = dur.Nanoseconds()
}

// Attr annotates span id with a string value.
func (t *Trace) Attr(id int, key, val string) {
	if t == nil || id < 0 || id >= len(t.Spans) {
		return
	}
	t.Spans[id].Attrs = append(t.Spans[id].Attrs, Attr{Key: key, Val: val})
}

// AttrInt annotates span id with an integer value.
func (t *Trace) AttrInt(id int, key string, v int64) {
	t.Attr(id, key, strconv.FormatInt(v, 10))
}

// AttrFloat annotates span id with a float value (shortest round-trip
// formatting, so identical floats produce identical traces).
func (t *Trace) AttrFloat(id int, key string, v float64) {
	t.Attr(id, key, strconv.FormatFloat(v, 'g', -1, 64))
}

// AttrBool annotates span id with a boolean value.
func (t *Trace) AttrBool(id int, key string, v bool) {
	t.Attr(id, key, strconv.FormatBool(v))
}

// Graft appends sub's spans under parent, remapping IDs and shifting start
// offsets onto t's clock. Sub-trace root spans (Parent == -1) become
// children of parent. The engine uses this to assemble per-task traces in
// canonical order regardless of which worker ran them. Grafting onto or
// from nil is a no-op.
func (t *Trace) Graft(parent int, sub *Trace) {
	if t == nil || sub == nil {
		return
	}
	base := len(t.Spans)
	shift := sub.start.Sub(t.start).Nanoseconds()
	for _, s := range sub.Spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.StartNS += shift
		t.Spans = append(t.Spans, s)
	}
}

// SpanCount returns the number of recorded spans (0 for a nil trace).
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	return len(t.Spans)
}

// Find returns the first span with the given name, or nil.
func (t *Trace) Find(name string) *Span {
	if t == nil {
		return nil
	}
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// FindAll returns every span with the given name, in creation order.
func (t *Trace) FindAll(name string) []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			out = append(out, &t.Spans[i])
		}
	}
	return out
}

// Normalize zeroes every span's timing in place and returns t. Golden tests
// compare normalized traces: the span tree and its attributes are
// deterministic per (input, tv), the wall-clock timings are not.
func (t *Trace) Normalize() *Trace {
	if t == nil {
		return nil
	}
	for i := range t.Spans {
		t.Spans[i].StartNS = 0
		t.Spans[i].DurNS = 0
	}
	return t
}

// String renders a compact one-line summary, e.g.
// "localize(tv=1713): 34 spans".
func (t *Trace) String() string {
	if t == nil {
		return "<no trace>"
	}
	return fmt.Sprintf("%s(tv=%d): %d spans", t.Name, t.TV, len(t.Spans))
}

// TraceRing is a fixed-size ring of recent traces: the in-memory exporter
// behind the debug server's /trace/last. It is safe for concurrent use; a
// nil ring discards everything.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
}

// NewTraceRing returns a ring retaining the last n traces (n < 1 is
// clamped to 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*Trace, n)}
}

// Add records a trace, evicting the oldest when full. Nil rings and nil
// traces are ignored.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Last returns the most recently added trace, or nil.
func (r *TraceRing) Last() *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	return r.buf[(r.next-1+len(r.buf))%len(r.buf)]
}

// Snapshot returns the retained traces, oldest first.
func (r *TraceRing) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)])
	}
	return out
}
