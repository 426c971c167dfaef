package depgraph

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The paper performs dependency discovery offline and stores the result in
// a file for later reference (§II-C fn. 3), since application dependencies
// rarely change at runtime. This file implements that persistence as a
// stable, human-auditable JSON document.

// persistedGraph is the on-disk representation.
type persistedGraph struct {
	// Version guards future format evolution.
	Version int             `json:"version"`
	Nodes   []string        `json:"nodes"`
	Edges   []persistedEdge `json:"edges"`
}

type persistedEdge struct {
	From       string  `json:"from"`
	To         string  `json:"to"`
	Confidence float64 `json:"confidence"`
}

const persistVersion = 1

// Write serializes the graph as JSON. Nodes and edges are emitted in
// sorted order so the output is deterministic and diff-friendly.
func (g *Graph) Write(w io.Writer) error {
	doc := persistedGraph{Version: persistVersion, Nodes: g.Nodes()}
	for _, from := range g.Nodes() {
		for _, to := range g.Successors(from) {
			doc.Edges = append(doc.Edges, persistedEdge{
				From: from, To: to, Confidence: g.Confidence(from, to),
			})
		}
	}
	sort.Slice(doc.Edges, func(i, j int) bool {
		if doc.Edges[i].From != doc.Edges[j].From {
			return doc.Edges[i].From < doc.Edges[j].From
		}
		return doc.Edges[i].To < doc.Edges[j].To
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("depgraph: encode: %w", err)
	}
	return nil
}

// ReadGraph deserializes a graph written by Write. It refuses an edge the
// graph could not hold (see AddEdge): one whose confidence is not in (0, 1]
// or whose endpoints are the same node. An edge listed more than once keeps
// its highest confidence.
func ReadGraph(r io.Reader) (*Graph, error) {
	var doc persistedGraph
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("depgraph: decode: %w", err)
	}
	if doc.Version != persistVersion {
		return nil, fmt.Errorf("depgraph: unsupported format version %d", doc.Version)
	}
	g := NewGraph()
	for _, n := range doc.Nodes {
		if n == "" {
			return nil, fmt.Errorf("depgraph: empty node name")
		}
		g.AddNode(n)
	}
	for _, e := range doc.Edges {
		if e.From == "" || e.To == "" {
			return nil, fmt.Errorf("depgraph: edge with empty endpoint")
		}
		if e.Confidence <= 0 || e.Confidence > 1 {
			return nil, fmt.Errorf("depgraph: edge %s->%s has confidence %v outside (0,1]", e.From, e.To, e.Confidence)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("depgraph: edge %s->%s is a self-loop", e.From, e.To)
		}
		g.AddEdge(e.From, e.To, e.Confidence)
	}
	return g, nil
}

// Save writes the graph to path (the offline-discovery cache file).
func (g *Graph) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("depgraph: save: %w", err)
	}
	if err := g.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("depgraph: save: %w", err)
	}
	return nil
}

// Load reads a graph previously written with Save.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("depgraph: load: %w", err)
	}
	defer f.Close()
	return ReadGraph(f)
}
