package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"fchain/internal/obs"
)

// span is one timed interval the benchmark recorded or grafted from the
// program's own obs.Trace trees. Times are nanoseconds since the recorder
// started; spans of one cycle share its id.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"` // -1 for a root
	Cycle   int               `json:"cycle"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	SelfNS  int64             `json:"self_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recorder keeps every span in memory until the pass ends. A nil recorder
// records nothing, which is how the untraced pass runs the same code.
type recorder struct {
	mu sync.Mutex
	t0 time.Time
	// host is the clock anchor program traces are grafted onto; it is created
	// back to back with t0, so its offsets are the recorder's.
	host  *obs.Trace
	spans []span
}

func newRecorder() *recorder {
	t0 := time.Now()
	return &recorder{t0: t0, host: obs.NewTrace("bench", 0)}
}

// start opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) start(parent, cycle int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Cycle: cycle, Name: name, StartNS: now, EndNS: now})
	return id
}

// end closes a span at the current time.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (a feeder's busy
// time, a connection's last write).
func (r *recorder) add(parent, cycle int, name string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Cycle: cycle, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) attr(id int, key, val string) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	if r.spans[id].Attrs == nil {
		r.spans[id].Attrs = make(map[string]string)
	}
	r.spans[id].Attrs[key] = val
	r.mu.Unlock()
}

// setInterval overrides a span's interval. The master closes its ask:<slave>
// spans only after every answer is in, so they carry no duration of their
// own; the benchmark substitutes the interval it observed on the wire.
func (r *recorder) setInterval(id int, start, end time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].StartNS = start.Sub(r.t0).Nanoseconds()
	r.spans[id].EndNS = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

// reparent moves a span under another parent.
func (r *recorder) reparent(id, parent int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].Parent = parent
	r.mu.Unlock()
}

// graft copies a program trace under parent, keeping spans no deeper than
// maxDepth below the trace's roots (0 keeps roots only), and returns the new
// ids by span name. Placing the spans on the recorder's clock goes through
// obs.Trace.Graft, the only public way to learn a trace's absolute start.
func (r *recorder) graft(parent, cycle int, tr *obs.Trace, maxDepth int) map[string]int {
	if r == nil || tr == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.host.Spans)
	r.host.Graft(-1, tr)
	grafted := r.host.Spans[base:]
	ids := make(map[string]int)
	depth := make([]int, len(grafted))
	newID := make([]int, len(grafted))
	for i, sp := range grafted {
		p := parent
		if sp.Parent >= base {
			pi := sp.Parent - base
			depth[i] = depth[pi] + 1
			p = newID[pi]
		}
		if depth[i] > maxDepth || p == -2 {
			newID[i] = -2 // pruned, and so are its descendants
			continue
		}
		id := len(r.spans)
		newID[i] = id
		s := span{ID: id, Parent: p, Cycle: cycle, Name: sp.Name,
			StartNS: sp.StartNS, EndNS: sp.StartNS + sp.DurNS}
		if len(sp.Attrs) > 0 {
			s.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				s.Attrs[a.Key] = a.Val
			}
		}
		r.spans = append(r.spans, s)
		ids[sp.Name] = id
	}
	r.host.Spans = r.host.Spans[:base]
	return ids
}

// finish derives every span's self time: its duration minus the part of its
// interval that its children cover.
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	computeSelf(r.spans)
	return r.spans
}

type interval struct{ lo, hi int64 }

// computeSelf fills SelfNS for spans whose IDs index the slice.
func computeSelf(spans []span) {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNS, s.EndNS})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.SelfNS = (s.EndNS - s.StartNS) - covered(children[s.ID], s.StartNS, s.EndNS)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// attributedShare is the share of each enclosing span (named root) that the
// spans beneath it account for along the blocking path: at every level only
// the child that ends last is followed when siblings ran in parallel (names
// sharing the prefix before ':'), since the slowest one sets the parent's
// time. The result is the median share over all such roots.
func attributedShare(spans []span, root string) float64 {
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	var shares []float64
	for _, s := range spans {
		if s.Name != root || s.EndNS <= s.StartNS {
			continue
		}
		var attributed int64
		var walk func(id int)
		walk = func(id int) {
			// Group parallel siblings; follow only the last to end.
			last := make(map[string]int)
			for _, k := range kids[id] {
				group := spans[k].Name
				if i := strings.IndexByte(group, ':'); i >= 0 {
					group = group[:i]
				} else {
					group = "" // sequential child: always followed
				}
				if group == "" {
					attributed += spans[k].SelfNS
					walk(k)
					continue
				}
				if cur, ok := last[group]; !ok || spans[k].EndNS > spans[cur].EndNS {
					last[group] = k
				}
			}
			for _, k := range last {
				attributed += spans[k].SelfNS
				walk(k)
			}
		}
		walk(s.ID)
		shares = append(shares, float64(attributed)/float64(s.EndNS-s.StartNS))
	}
	return median(shares)
}

// writeSpans writes one JSON object per line, atomically.
func writeSpans(path, workload string, spans []span) error {
	type line struct {
		Workload string `json:"workload"`
		span
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(line{Workload: workload, span: s}); err != nil {
			return err
		}
	}
	return obs.WriteFileAtomic(path, buf.Bytes())
}
