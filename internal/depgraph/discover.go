package depgraph

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Packet is one passively observed network packet between two components.
// Timestamps are in seconds (fractional) since trace start.
type Packet struct {
	Time float64 `json:"time"`
	Src  string  `json:"src"`
	Dst  string  `json:"dst"`
}

// Flow is a contiguous burst of packets between one (src, dst) pair,
// delimited by inter-packet gaps.
type Flow struct {
	Src   string
	Dst   string
	Start float64
	End   float64
	Count int
}

// DiscoverConfig controls black-box dependency discovery.
type DiscoverConfig struct {
	// GapThreshold is the inter-packet gap (seconds) that splits two flows
	// between the same pair (default 0.5s). Continuous streams never pause
	// longer than this, so they collapse into one endless flow and produce
	// no usable co-occurrence evidence — reproducing the paper's System S
	// observation.
	GapThreshold float64
	// Delay is the co-occurrence window (seconds): a flow into component X
	// followed within Delay by a flow X→Y counts as evidence for edge X→Y
	// (default 1.0s).
	Delay float64
	// MinConfidence is the minimum conditional probability
	// P(flow X→Y shortly after flow into X) to accept the edge
	// (default 0.3: a balancer splitting requests across k backends
	// yields per-backend confidence ≈ 1/k).
	MinConfidence float64
	// ReplyWindow classifies a flow X→Y as a reply (and excludes it from
	// the co-occurrence analysis) when a flow Y→X started within
	// ReplyWindow seconds before it (default 0.2s).
	ReplyWindow float64
	// MinFlows is the minimum number of observed inbound flows required
	// before an edge out of a component can be trusted (default 10). The
	// paper notes black-box discovery needs a sufficient amount of trace
	// data.
	MinFlows int
	// MaxFlowDuration marks a flow as unusable for co-occurrence analysis
	// when it exceeds this duration in seconds (default 30s); such flows
	// indicate continuous streaming traffic.
	MaxFlowDuration float64
}

func (c DiscoverConfig) withDefaults() DiscoverConfig {
	if c.GapThreshold <= 0 {
		c.GapThreshold = 0.5
	}
	if c.Delay <= 0 {
		c.Delay = 1.0
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.3
	}
	if c.ReplyWindow <= 0 {
		c.ReplyWindow = 0.2
	}
	if c.MinFlows <= 0 {
		c.MinFlows = 10
	}
	if c.MaxFlowDuration <= 0 {
		c.MaxFlowDuration = 30
	}
	return c
}

// ExtractFlows groups packets into flows per (src,dst) pair using the
// configured inter-packet gap threshold. Flows come sorted by start, then
// source, then destination; a NaN packet time leaves that order undefined.
func ExtractFlows(packets []Packet, cfg DiscoverConfig) []Flow {
	cfg = cfg.withDefaults()
	type pair struct{ src, dst string }
	byPair := make(map[pair][]float64)
	for _, p := range packets {
		k := pair{p.Src, p.Dst}
		byPair[k] = append(byPair[k], p.Time)
	}
	// Size the result before filling it: a flow ends wherever consecutive
	// times are more than GapThreshold apart.
	n := 0
	for _, times := range byPair {
		sort.Float64s(times)
		n++
		for i := 1; i < len(times); i++ {
			if times[i]-times[i-1] > cfg.GapThreshold {
				n++
			}
		}
	}
	flows := make([]Flow, 0, n)
	for k, times := range byPair {
		cur := Flow{Src: k.src, Dst: k.dst, Start: times[0], End: times[0], Count: 1}
		for _, t := range times[1:] {
			if t-cur.End > cfg.GapThreshold {
				flows = append(flows, cur)
				cur = Flow{Src: k.src, Dst: k.dst, Start: t, End: t, Count: 1}
				continue
			}
			cur.End = t
			cur.Count++
		}
		flows = append(flows, cur)
	}
	slices.SortFunc(flows, func(a, b Flow) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return strings.Compare(a.Dst, b.Dst)
	})
	return flows
}

// Discover infers the inter-component dependency graph from a packet trace.
// An edge X→Y is added when, conditioned on a flow arriving at X, a flow
// X→Y begins within cfg.Delay with probability ≥ cfg.MinConfidence.
//
// Continuous streaming traffic (no inter-packet gaps) yields a single
// unbounded flow per pair; such flows are discarded, so a pure streaming
// application produces an empty graph.
//
// The co-occurrence scan costs O(F log F) in the F usable flows: each
// component's outbound flows are sorted by start once, and each inbound
// flow into X binary-searches X's outbound flows for the window
// [in.Start, in.Start+Delay].
func Discover(packets []Packet, cfg DiscoverConfig) *Graph {
	cfg = cfg.withDefaults()
	flows := ExtractFlows(packets, cfg)
	g := NewGraph()
	// Discard stream-like flows: discovery relies on discrete request/reply
	// exchanges.
	usable := flows[:0]
	for _, f := range flows {
		g.AddNode(f.Src)
		g.AddNode(f.Dst)
		if f.End-f.Start <= cfg.MaxFlowDuration {
			usable = append(usable, f)
		}
	}
	usable = dropReplies(usable, cfg.ReplyWindow)
	// Index each source's outbound flows and distinct destinations.
	srcs := make(map[string]*source)
	get := func(name string) *source {
		s := srcs[name]
		if s == nil {
			s = &source{slot: make(map[string]int)}
			srcs[name] = s
		}
		return s
	}
	widest := 0
	for _, f := range usable {
		s := get(f.Src)
		k, ok := s.slot[f.Dst]
		if !ok {
			k = len(s.dsts)
			s.slot[f.Dst] = k
			s.dsts = append(s.dsts, f.Dst)
			s.flows = append(s.flows, 0)
			s.co = append(s.co, 0)
			widest = max(widest, len(s.dsts))
		}
		s.flows[k]++
		s.outs = append(s.outs, outFlow{start: f.Start, dst: k})
	}
	for _, s := range srcs {
		// Usable flows have finite starts (End-Start <= MaxFlowDuration is
		// false for NaN and ±Inf), so this order is total, unlike the one
		// ExtractFlows returns when a packet time is not finite.
		slices.SortFunc(s.outs, func(a, b outFlow) int { return cmp.Compare(a.start, b.start) })
	}
	// For each inbound flow into X, count every destination Y that X opens
	// a flow to within the delay window: the outbound flow must start after
	// (or with) the inbound request and no later than Delay after it.
	seen := make([]int, widest) // per destination slot, the last inbound flow (1-based) that hit it
	for i, in := range usable {
		x := get(in.Dst)
		x.inbound++
		j := sort.Search(len(x.outs), func(k int) bool { return x.outs[k].start >= in.Start })
		end := in.Start + cfg.Delay
		for hits := 0; j < len(x.outs) && x.outs[j].start <= end && hits < len(x.dsts); j++ {
			if k := x.outs[j].dst; seen[k] != i+1 {
				seen[k] = i + 1
				x.co[k]++
				hits++
			}
		}
	}
	for x, s := range srcs {
		if s.inbound > 0 {
			if s.inbound < cfg.MinFlows {
				continue
			}
			for k, y := range s.dsts {
				conf := float64(s.co[k]) / float64(s.inbound)
				if conf >= cfg.MinConfidence {
					g.AddEdge(x, y, conf)
				}
			}
			continue
		}
		// Entry components receive no inbound flows, but their outbound
		// edges are directly observable: if X never appears as a
		// destination yet repeatedly opens flows to Y, record the edge with
		// confidence from flow count.
		for k, y := range s.dsts {
			if s.flows[k] >= cfg.MinFlows {
				g.AddEdge(x, y, 1.0)
			}
		}
	}
	return g
}

// source is one component's side of the co-occurrence scan.
type source struct {
	outs    []outFlow      // usable outbound flows, sorted by start
	dsts    []string       // distinct destinations of outs
	slot    map[string]int // destination -> index into dsts
	flows   []int          // per destination, outbound flows to it
	co      []int          // per destination, inbound flows followed by one
	inbound int            // usable flows into the component
}

// outFlow is one usable outbound flow as the co-occurrence scan reads it.
type outFlow struct {
	start float64
	dst   int // index into source.dsts
}

// dropReplies removes flows that are responses to a just-started flow in
// the opposite direction: a flow X→Y beginning within replyWindow of a flow
// Y→X is traffic returning to the caller, not a dependency of X on Y.
func dropReplies(flows []Flow, replyWindow float64) []Flow {
	type pair struct{ src, dst string }
	starts := make(map[pair][]float64)
	for _, f := range flows {
		k := pair{f.Src, f.Dst}
		starts[k] = append(starts[k], f.Start)
	}
	for _, ts := range starts {
		sort.Float64s(ts)
	}
	out := flows[:0]
	for _, f := range flows {
		if isReply(starts[pair{f.Dst, f.Src}], f.Start, replyWindow) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// isReply reports whether sorted reverse-direction start times contain one
// in [start-replyWindow, start].
func isReply(reverseStarts []float64, start, replyWindow float64) bool {
	i := sort.SearchFloat64s(reverseStarts, start-replyWindow)
	return i < len(reverseStarts) && reverseStarts[i] <= start
}
