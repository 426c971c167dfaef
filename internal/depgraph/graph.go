// Package depgraph provides the inter-component dependency graph and the
// black-box dependency discovery used by FChain's integrated fault
// diagnosis.
//
// FChain does not assume application topology knowledge. Instead it runs an
// offline, Sherlock-style ([11] in the paper) discovery pass over passively
// captured network traffic: packets between a component pair are grouped
// into flows using inter-packet gaps, and an edge A→B is inferred when flows
// into A are followed, within a small delay window, by flows from A to B
// significantly more often than chance. Because the discovery needs gaps to
// delimit flows, it finds nothing for continuous data-stream systems — the
// exact failure mode the paper reports for IBM System S; FChain then falls
// back to pure propagation-order localization.
package depgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is a directed dependency graph: an edge A→B means "A depends on B"
// in the sense that A sends requests to B (B is downstream of A).
type Graph struct {
	edges map[string]map[string]float64 // from -> to -> confidence
	nodes map[string]bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		edges: make(map[string]map[string]float64),
		nodes: make(map[string]bool),
	}
}

// AddNode registers a node without edges.
func (g *Graph) AddNode(name string) {
	g.nodes[name] = true
}

// AddEdge records a dependency from→to with the given confidence, keeping
// the maximum confidence when the edge already exists. A self-loop is not
// recorded, nor is an edge whose confidence is not above 0.
func (g *Graph) AddEdge(from, to string, confidence float64) {
	if from == to {
		return
	}
	g.nodes[from] = true
	g.nodes[to] = true
	m, ok := g.edges[from]
	if !ok {
		m = make(map[string]float64)
		g.edges[from] = m
	}
	if confidence > m[to] {
		m[to] = confidence
	}
}

// HasEdge reports whether from→to exists.
func (g *Graph) HasEdge(from, to string) bool {
	_, ok := g.edges[from][to]
	return ok
}

// Confidence returns the recorded confidence of edge from→to (0 when the
// edge is absent).
func (g *Graph) Confidence(from, to string) float64 {
	return g.edges[from][to]
}

// Nodes returns all node names in sorted order.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Edges returns the number of directed edges.
func (g *Graph) Edges() int {
	n := 0
	for _, m := range g.edges {
		n += len(m)
	}
	return n
}

// Empty reports whether the graph has no edges — the situation FChain faces
// when dependency discovery fails (e.g. for stream processing systems).
func (g *Graph) Empty() bool { return g.Edges() == 0 }

// Successors returns the direct downstream neighbors of n, sorted.
func (g *Graph) Successors(n string) []string {
	m := g.edges[n]
	out := make([]string, 0, len(m))
	for to := range m {
		out = append(out, to)
	}
	sort.Strings(out)
	return out
}

// Connectivity labels every node with its connected component in the
// undirected interaction graph: two nodes share a label exactly when a
// chain of interaction edges joins them, whichever side is client and
// which server. FChain uses this to decide whether an anomaly *could* have
// propagated between two components: propagation travels downstream via
// requests and upstream via back-pressure, so any chain of interaction
// edges suffices (paper §II-C). Labelling costs O(V+E) once; every query
// after it is two map reads.
type Connectivity map[string]string

// Connectivity labels g's nodes by union-find over its edges; a node's
// label is the name of its component's root.
func (g *Graph) Connectivity() Connectivity {
	parent := make(map[string]string, len(g.nodes))
	for n := range g.nodes {
		parent[n] = n
	}
	find := func(n string) string {
		for parent[n] != n {
			parent[n] = parent[parent[n]] // path halving
			n = parent[n]
		}
		return n
	}
	for from, m := range g.edges {
		for to := range m {
			if a, b := find(from), find(to); a != b {
				parent[a] = b
			}
		}
	}
	labels := make(Connectivity, len(parent))
	for n := range parent {
		labels[n] = find(n)
	}
	return labels
}

// HasDirectedPath reports whether to is reachable from from following edge
// direction only (request direction). The Topology/Dependency baselines use
// directed reachability.
func (g *Graph) HasDirectedPath(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range g.edges[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	for n := range g.nodes {
		out.AddNode(n)
	}
	for from, m := range g.edges {
		for to, c := range m {
			out.AddEdge(from, to, c)
		}
	}
	return out
}

// String renders the graph compactly for logs and tests.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, from := range g.Nodes() {
		for _, to := range g.Successors(from) {
			fmt.Fprintf(&sb, "%s->%s(%.2f) ", from, to, g.Confidence(from, to))
		}
	}
	return strings.TrimSpace(sb.String())
}
