package depgraph

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPersistRoundTrip(t *testing.T) {
	g := NewGraph()
	g.AddEdge("web", "app1", 0.58)
	g.AddEdge("web", "app2", 0.51)
	g.AddEdge("app1", "db", 1.0)
	g.AddNode("lonely")

	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != g.String() {
		t.Errorf("roundtrip mismatch:\n got %s\nwant %s", back, g)
	}
	// Isolated nodes must survive too (they matter for Connectivity).
	found := false
	for _, n := range back.Nodes() {
		if n == "lonely" {
			found = true
		}
	}
	if !found {
		t.Error("isolated node lost in roundtrip")
	}
}

func TestPersistDeterministic(t *testing.T) {
	g := NewGraph()
	g.AddEdge("b", "c", 0.5)
	g.AddEdge("a", "c", 0.7)
	g.AddEdge("a", "b", 0.9)
	var one, two bytes.Buffer
	if err := g.Write(&one); err != nil {
		t.Fatal(err)
	}
	if err := g.Write(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("serialization is not deterministic")
	}
}

func TestPersistFile(t *testing.T) {
	g := NewGraph()
	g.AddEdge("x", "y", 0.8)
	path := filepath.Join(t.TempDir(), "deps.json")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasEdge("x", "y") || back.Confidence("x", "y") != 0.8 {
		t.Errorf("loaded graph wrong: %s", back)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestReadGraphRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		give string
		want string // the error names this, when set
	}{
		{"not json", "hello", ""},
		{"wrong version", `{"version": 99, "nodes": [], "edges": []}`, ""},
		{"empty node", `{"version": 1, "nodes": [""], "edges": []}`, ""},
		{"empty endpoint", `{"version": 1, "nodes": ["a"], "edges": [{"from":"","to":"a","confidence":1}]}`, ""},
		{"bad confidence", `{"version": 1, "nodes": ["a","b"], "edges": [{"from":"a","to":"b","confidence":7}]}`, ""},
		// The graph cannot hold these two, so reading one must not yield a
		// graph that silently lacks it.
		{"zero confidence", `{"version": 1, "edges": [{"from":"a","to":"b","confidence":0.5},{"from":"a","to":"c","confidence":0}]}`, "a->c"},
		{"self-loop", `{"version": 1, "edges": [{"from":"a","to":"b","confidence":0.5},{"from":"b","to":"b","confidence":0.5}]}`, "b->b"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadGraph(strings.NewReader(tt.give))
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("ReadGraph(%q) = %v, want an error naming %q", tt.give, err, tt.want)
			}
		})
	}
}

// Property: every generated graph survives a serialization roundtrip with
// identical reachability.
func TestPersistRoundTripProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	f := func(edges []uint8) bool {
		g := NewGraph()
		for _, e := range edges {
			from := names[int(e)%len(names)]
			to := names[int(e>>2)%len(names)]
			g.AddEdge(from, to, float64(e%10)/10)
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			return false
		}
		back, err := ReadGraph(&buf)
		if err != nil {
			return false
		}
		for _, x := range names {
			for _, y := range names {
				if g.HasDirectedPath(x, y) != back.HasDirectedPath(x, y) {
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

// FuzzReadGraph feeds the -deps file reader arbitrary documents: it must not
// panic, every edge a document it accepts lists must be in the graph at the
// highest confidence listed for it, and the graph must survive Write →
// ReadGraph with the same nodes, edges and confidence bits.
func FuzzReadGraph(f *testing.F) {
	g := NewGraph()
	g.AddEdge("web", "app1", 0.58)
	g.AddEdge("web", "app2", 0.51)
	g.AddEdge("app1", "db", 1.0)
	g.AddNode("lonely")
	var written bytes.Buffer
	if err := g.Write(&written); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		written.String(),
		"hello",
		`{"version": 99, "nodes": [], "edges": []}`,
		`{"version": 1, "nodes": [""], "edges": []}`,
		`{"version": 1, "nodes": ["a"], "edges": [{"from":"","to":"a","confidence":1}]}`,
		`{"version": 1, "nodes": ["a","b"], "edges": [{"from":"a","to":"b","confidence":7}]}`,
		`{"version": 1, "edges": [{"from":"a","to":"b","confidence":0.25},{"from":"a","to":"b","confidence":0.5},{"from":"b","to":"b","confidence":1}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		g, err := ReadGraph(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var listed persistedGraph
		if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&listed); err != nil {
			t.Fatalf("accepted document does not decode: %v", err)
		}
		best := map[[2]string]float64{}
		for _, e := range listed.Edges {
			k := [2]string{e.From, e.To}
			best[k] = max(best[k], e.Confidence)
		}
		for k, c := range best {
			if !g.HasEdge(k[0], k[1]) || math.Float64bits(g.Confidence(k[0], k[1])) != math.Float64bits(c) {
				t.Fatalf("listed edge %q->%q at confidence %v, read as %v (present %v)",
					k[0], k[1], c, g.Confidence(k[0], k[1]), g.HasEdge(k[0], k[1]))
			}
		}
		if g.Edges() != len(best) {
			t.Fatalf("%d distinct edges listed, %d read", len(best), g.Edges())
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("accepted graph does not write: %v", err)
		}
		back, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("written graph does not read back: %v\n%s", err, buf.Bytes())
		}
		if got, want := back.Nodes(), g.Nodes(); !slices.Equal(got, want) {
			t.Fatalf("nodes %q, read back as %q", want, got)
		}
		if back.Edges() != g.Edges() {
			t.Fatalf("%d edges, read back as %d", g.Edges(), back.Edges())
		}
		for _, from := range g.Nodes() {
			for _, to := range g.Successors(from) {
				if !back.HasEdge(from, to) ||
					math.Float64bits(back.Confidence(from, to)) != math.Float64bits(g.Confidence(from, to)) {
					t.Fatalf("edge %q->%q confidence %v, read back as %v (present %v)",
						from, to, g.Confidence(from, to), back.Confidence(from, to), back.HasEdge(from, to))
				}
			}
		}
	})
}
