package depgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	if !g.Empty() {
		t.Error("fresh graph should be empty")
	}
	g.AddEdge("web", "app", 0.9)
	g.AddEdge("app", "db", 0.8)
	if !g.HasEdge("web", "app") || g.HasEdge("app", "web") {
		t.Error("edge direction wrong")
	}
	if g.Edges() != 2 {
		t.Errorf("Edges = %d, want 2", g.Edges())
	}
	if got := g.Confidence("web", "app"); got != 0.9 {
		t.Errorf("Confidence = %v, want 0.9", got)
	}
	want := []string{"app", "db", "web"}
	got := g.Nodes()
	if len(got) != len(want) {
		t.Fatalf("Nodes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Nodes[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestGraphSelfEdgeIgnored(t *testing.T) {
	g := NewGraph()
	g.AddEdge("a", "a", 1)
	if g.Edges() != 0 {
		t.Error("self edges must be ignored")
	}
}

func TestGraphKeepsMaxConfidence(t *testing.T) {
	g := NewGraph()
	g.AddEdge("a", "b", 0.5)
	g.AddEdge("a", "b", 0.9)
	g.AddEdge("a", "b", 0.2)
	if got := g.Confidence("a", "b"); got != 0.9 {
		t.Errorf("Confidence = %v, want 0.9", got)
	}
}

func TestDirectedPath(t *testing.T) {
	g := NewGraph()
	g.AddEdge("web", "app1", 1)
	g.AddEdge("web", "app2", 1)
	g.AddEdge("app1", "db", 1)
	g.AddEdge("app2", "db", 1)
	tests := []struct {
		from, to string
		want     bool
	}{
		{"web", "db", true},
		{"db", "web", false},
		{"app1", "app2", false},
		{"web", "web", true},
		{"app1", "db", true},
	}
	for _, tt := range tests {
		if got := g.HasDirectedPath(tt.from, tt.to); got != tt.want {
			t.Errorf("HasDirectedPath(%s,%s) = %v, want %v", tt.from, tt.to, got, tt.want)
		}
	}
}

// hasPath reports whether a chain of interaction edges joins from and to,
// as Connectivity labels them. Every node reaches itself, including one the
// graph does not hold.
func hasPath(g *Graph, from, to string) bool {
	if from == to {
		return true
	}
	c := g.Connectivity()
	lf, okF := c[from]
	lt, okT := c[to]
	return okF && okT && lf == lt
}

func TestUndirectedPathCoversBackPressure(t *testing.T) {
	// db is downstream of app; back-pressure can push anomalies upstream,
	// so a propagation path db ~> web must exist.
	g := NewGraph()
	g.AddEdge("web", "app", 1)
	g.AddEdge("app", "db", 1)
	if !hasPath(g, "db", "web") {
		t.Error("undirected propagation path db->web should exist")
	}
	// But two disconnected components have no path.
	g.AddNode("outsider")
	if hasPath(g, "db", "outsider") {
		t.Error("no path should exist to a disconnected node")
	}
}

func TestSuccessorsSorted(t *testing.T) {
	g := NewGraph()
	g.AddEdge("x", "c", 1)
	g.AddEdge("x", "a", 1)
	g.AddEdge("x", "b", 1)
	got := g.Successors("x")
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", got, want)
		}
	}
}

func TestClone(t *testing.T) {
	g := NewGraph()
	g.AddEdge("a", "b", 0.7)
	c := g.Clone()
	c.AddEdge("b", "c", 0.5)
	if g.HasEdge("b", "c") {
		t.Error("clone must not share edge storage")
	}
	if !c.HasEdge("a", "b") || c.Confidence("a", "b") != 0.7 {
		t.Error("clone missing original edge")
	}
}

// requestReplyTrace synthesizes a classic multi-tier request/reply packet
// trace: client→web→app→db with per-hop delays, one burst per request,
// separated by think time.
func requestReplyTrace(requests int, seed int64) []Packet {
	rng := rand.New(rand.NewSource(seed))
	var pkts []Packet
	t := 0.0
	for i := 0; i < requests; i++ {
		t += 1.0 + rng.Float64() // think time >> gap threshold
		tt := t
		pkts = append(pkts, Packet{Time: tt, Src: "client", Dst: "web"})
		tt += 0.01
		pkts = append(pkts, Packet{Time: tt, Src: "web", Dst: "app"})
		tt += 0.01
		pkts = append(pkts, Packet{Time: tt, Src: "app", Dst: "db"})
		tt += 0.02
		pkts = append(pkts, Packet{Time: tt, Src: "db", Dst: "app"})
		tt += 0.01
		pkts = append(pkts, Packet{Time: tt, Src: "app", Dst: "web"})
		tt += 0.01
		pkts = append(pkts, Packet{Time: tt, Src: "web", Dst: "client"})
	}
	return pkts
}

func TestExtractFlowsSplitsOnGaps(t *testing.T) {
	pkts := []Packet{
		{Time: 0.0, Src: "a", Dst: "b"},
		{Time: 0.1, Src: "a", Dst: "b"},
		{Time: 5.0, Src: "a", Dst: "b"}, // gap >> threshold: new flow
		{Time: 5.1, Src: "a", Dst: "b"},
	}
	flows := ExtractFlows(pkts, DiscoverConfig{GapThreshold: 0.5})
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2: %+v", len(flows), flows)
	}
	if flows[0].Count != 2 || flows[1].Count != 2 {
		t.Errorf("flow packet counts wrong: %+v", flows)
	}
}

func TestExtractFlowsContinuousStream(t *testing.T) {
	// Packets every 100ms for 60s: one giant flow, no gaps.
	var pkts []Packet
	for i := 0; i < 600; i++ {
		pkts = append(pkts, Packet{Time: float64(i) * 0.1, Src: "pe1", Dst: "pe2"})
	}
	flows := ExtractFlows(pkts, DiscoverConfig{GapThreshold: 0.5})
	if len(flows) != 1 {
		t.Fatalf("continuous stream should form one flow, got %d", len(flows))
	}
}

func TestDiscoverMultiTier(t *testing.T) {
	g := Discover(requestReplyTrace(200, 1), DiscoverConfig{})
	if !g.HasEdge("web", "app") {
		t.Errorf("missing web->app edge; graph: %s", g)
	}
	if !g.HasEdge("app", "db") {
		t.Errorf("missing app->db edge; graph: %s", g)
	}
	// No fabricated reverse-direction dependency beyond replies: the db
	// must not appear to depend on the client.
	if g.HasEdge("db", "client") {
		t.Errorf("spurious db->client edge; graph: %s", g)
	}
}

func TestDiscoverFailsOnStreams(t *testing.T) {
	// The paper's System S observation: continuous tuple traffic has no
	// inter-packet gaps, so no dependencies are discoverable.
	var pkts []Packet
	for i := 0; i < 2000; i++ {
		ts := float64(i) * 0.05
		pkts = append(pkts, Packet{Time: ts, Src: "pe1", Dst: "pe3"})
		pkts = append(pkts, Packet{Time: ts + 0.01, Src: "pe3", Dst: "pe6"})
		pkts = append(pkts, Packet{Time: ts + 0.02, Src: "pe6", Dst: "pe7"})
	}
	g := Discover(pkts, DiscoverConfig{})
	if !g.Empty() {
		t.Errorf("stream trace should yield an empty graph, got %s", g)
	}
	// Nodes are still observed even though no edges are inferable.
	if len(g.Nodes()) == 0 {
		t.Error("nodes should still be recorded")
	}
}

func TestDiscoverNeedsEnoughData(t *testing.T) {
	g := Discover(requestReplyTrace(3, 2), DiscoverConfig{MinFlows: 10})
	if g.HasEdge("app", "db") {
		t.Error("too little trace data should not produce confident edges")
	}
}

func TestDiscoverEmptyTrace(t *testing.T) {
	g := Discover(nil, DiscoverConfig{})
	if !g.Empty() || len(g.Nodes()) != 0 {
		t.Error("empty trace should produce empty graph")
	}
}

// Property: undirected reachability is reflexive and consistent with HasDirectedPath.
func TestPathProperties(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		g := NewGraph()
		names := []string{"a", "b", "c", "d", "e"}
		for _, e := range edges {
			g.AddEdge(names[int(e[0])%len(names)], names[int(e[1])%len(names)], 1)
		}
		for _, n := range names {
			if !hasPath(g, n, n) {
				return false
			}
			for _, m := range names {
				// Directed reachability implies undirected reachability.
				if g.HasDirectedPath(n, m) && !hasPath(g, n, m) {
					return false
				}
				// Undirected paths are symmetric.
				if hasPath(g, n, m) != hasPath(g, m, n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: flow extraction conserves packet counts.
func TestFlowConservationProperty(t *testing.T) {
	f := func(times []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c"}
		var pkts []Packet
		for _, raw := range times {
			pkts = append(pkts, Packet{
				Time: float64(raw) * 0.01,
				Src:  names[rng.Intn(len(names))],
				Dst:  names[rng.Intn(len(names))],
			})
		}
		flows := ExtractFlows(pkts, DiscoverConfig{})
		total := 0
		for _, f := range flows {
			if f.Count <= 0 || f.End < f.Start {
				return false
			}
			total += f.Count
		}
		return total == len(pkts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
