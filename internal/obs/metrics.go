package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// HistBuckets is the number of log2 histogram buckets: bucket i counts
// durations in [2^i, 2^(i+1)) ns, so 40 buckets span 1 ns to ~18 minutes.
const HistBuckets = 40

// LatencyHist is a fixed-size log2-bucketed nanosecond histogram. It is a
// plain value (no pointers, no locks): workers accumulate into private
// copies and Merge them, so recording on the hot path costs one increment
// and no allocation. Histogram is the registry's concurrent one.
type LatencyHist struct {
	Buckets [HistBuckets]int64 `json:"buckets"`
	Count   int64              `json:"count"`
	SumNS   int64              `json:"sum_ns"`
	MaxNS   int64              `json:"max_ns"`
}

// log2Bucket returns the bucket index for a nanosecond duration.
func log2Bucket(ns int64) int {
	b := bits.Len64(uint64(max(ns, 0)))
	if b > 0 {
		b-- // bits.Len64(1<<i) == i+1; bucket index is i
	}
	return min(b, HistBuckets-1)
}

// Observe records one duration in nanoseconds; a negative one counts as 0.
func (h *LatencyHist) Observe(ns int64) {
	ns = max(ns, 0)
	h.Buckets[log2Bucket(ns)]++
	h.Count++
	h.SumNS += ns
	if ns > h.MaxNS {
		h.MaxNS = ns
	}
}

// Merge folds another histogram into h.
func (h *LatencyHist) Merge(o LatencyHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.SumNS += o.SumNS
	if o.MaxNS > h.MaxNS {
		h.MaxNS = o.MaxNS
	}
}

// MeanNS returns the mean recorded duration in nanoseconds (0 when empty).
func (h LatencyHist) MeanNS() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumNS / h.Count
}

// QuantileNS returns an upper bound on the q-quantile (q in [0,1]) of the
// recorded durations: the top edge of the bucket holding the q-th
// observation. Log2 buckets bound the estimate within 2x of the true value.
func (h LatencyHist) QuantileNS(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.Count-1))
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			edge := int64(1)<<(i+1) - 1
			// The recorded maximum is always a valid upper bound and is
			// tighter whenever the bucket edge overshoots it — and for the
			// overflow bucket, whose nominal edge can sit *below* the
			// largest observation, it is the only correct answer.
			if i == HistBuckets-1 || edge > h.MaxNS {
				edge = h.MaxNS
			}
			return edge
		}
	}
	return h.MaxNS
}

// String renders a compact "n=12 mean=1.2ms p99<=4.1ms max=3.9ms" summary.
func (h LatencyHist) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s p99<=%s max=%s",
		h.Count, fmtNS(h.MeanNS()), fmtNS(h.QuantileNS(0.99)), fmtNS(h.MaxNS))
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Counter is a monotonically increasing metric. The zero value is ready;
// every method on a nil *Counter is a no-op, so uninstrumented paths cost a
// pointer test.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (stored as a float64).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a LatencyHist behind a mutex: safe for concurrent use, and
// every method on a nil *Histogram is a no-op.
type Histogram struct {
	mu sync.Mutex
	h  LatencyHist
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(ns)
	h.mu.Unlock()
}

// Merge folds a histogram accumulated elsewhere, such as the analysis
// engine's per-call PoolStats, into h.
func (h *Histogram) Merge(o LatencyHist) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Merge(o)
	h.mu.Unlock()
}

// snapshot copies the histogram under the lock.
func (h *Histogram) snapshot() LatencyHist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// metricKind tags a registered family for the Prometheus TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one metric family: a name, help text, and its labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]any // label signature -> *Counter | *Gauge | *Histogram
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Get-or-create accessors make wiring idempotent:
// instrumented code asks for its metric by name each time and the registry
// hands back the same instance. A nil *Registry returns nil metrics, whose
// methods no-op, so a daemon run without -debug-addr records nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSignature renders labels deterministically: {k1="v1",k2="v2"} with
// keys sorted, or "" for no labels.
func labelSignature(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the metric instance for (name, labels), creating the
// family and series on first use. A kind clash panics: that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, kind metricKind, labels map[string]string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	sig := labelSignature(labels)
	m, ok := f.series[sig]
	if !ok {
		m = mk()
		f.series[sig] = m
	}
	return m
}

// Counter returns the named unlabeled counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith returns the named counter for one label set.
func (r *Registry) CounterWith(name, help string, labels map[string]string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the named unlabeled gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith returns the named gauge for one label set.
func (r *Registry) GaugeWith(name, help string, labels map[string]string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the named unlabeled histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramWith(name, help, nil)
}

// HistogramWith returns the named histogram for one label set.
func (r *Registry) HistogramWith(name, help string, labels map[string]string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels, func() any { return &Histogram{} }).(*Histogram)
}

// WriteProm renders every registered metric in Prometheus text exposition
// format, families and series sorted by name so output is deterministic.
// Histogram durations are exposed in seconds, per Prometheus convention.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			if err := writeSeries(w, f, sig); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one labeled series of a family.
func writeSeries(w io.Writer, f *family, sig string) error {
	switch m := f.series[sig].(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, sig, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %g\n", f.name, sig, m.Value())
		return err
	case *Histogram:
		snap := m.snapshot()
		cum := int64(0)
		for i, c := range snap.Buckets {
			cum += c
			if c == 0 && i < HistBuckets-1 {
				// Keep the exposition compact: emit only buckets that
				// change the cumulative count, plus the final bucket.
				continue
			}
			le := float64(uint64(1)<<(i+1)) / 1e9
			if err := writeBucket(w, f.name, sig, fmt.Sprintf("%g", le), cum); err != nil {
				return err
			}
		}
		if err := writeBucket(w, f.name, sig, "+Inf", snap.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name, sig, float64(snap.SumNS)/1e9); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, sig, snap.Count)
		return err
	}
	return nil
}

// writeBucket renders one cumulative histogram bucket line, splicing the
// le label into an existing label signature when present.
func writeBucket(w io.Writer, name, sig, le string, cum int64) error {
	if sig == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		return err
	}
	inner := sig[1 : len(sig)-1]
	_, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, inner, le, cum)
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format (the debug server mounts it at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}
