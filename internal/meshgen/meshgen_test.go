package meshgen_test

import (
	"math/rand"
	"reflect"
	"testing"

	"fchain/internal/cloudsim"
	"fchain/internal/depgraph"
	"fchain/internal/meshgen"
)

// topology returns the mesh's ground-truth dependency graph; forward drops
// the feedback edges, leaving the DAG skeleton the generator guarantees.
func topology(m *meshgen.Mesh, forward bool) *depgraph.Graph {
	g := depgraph.NewGraph()
	for _, c := range m.Spec.Components {
		g.AddNode(c.Name)
		for _, e := range c.Downstream {
			if !forward || e.Kind == cloudsim.EdgeBalanced {
				g.AddEdge(c.Name, e.To, 1)
			}
		}
	}
	return g
}

// acyclic reports whether g has no directed cycle: no edge whose head
// reaches its tail.
func acyclic(g *depgraph.Graph) bool {
	for _, from := range g.Nodes() {
		for _, to := range g.Successors(from) {
			if g.HasDirectedPath(to, from) {
				return false
			}
		}
	}
	return true
}

// TestParseParams pins the CLI mesh-spec grammar.
func TestParseParams(t *testing.T) {
	p, err := meshgen.ParseParams("n=200,fanout=3,depth=5,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if p.Components != 200 || p.FanOut != 3 || p.Depth != 5 || p.Seed != 7 {
		t.Fatalf("parsed %+v", p)
	}
	if p.Hosts != 50 {
		t.Errorf("default hosts = %d, want n/4 = 50", p.Hosts)
	}
	if p.BaseRate != 60 || p.Util != 0.35 {
		t.Errorf("defaults not applied: %+v", p)
	}

	if _, err := meshgen.ParseParams("n=100,bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := meshgen.ParseParams("n"); err == nil {
		t.Error("malformed pair accepted")
	}
	if _, err := meshgen.ParseParams("n=abc"); err == nil {
		t.Error("non-numeric value accepted")
	}
	empty, err := meshgen.ParseParams("")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Components != 200 {
		t.Errorf("empty spec should yield defaults, got %+v", empty)
	}
}

// propertyParams derives one generator parameter set per seed, sweeping the
// knob space (components 100–1000, fan-out 2–5, depth 3–7, hosts, cycles).
func propertyParams(seed int64) meshgen.Params {
	rng := rand.New(rand.NewSource(seed * 101))
	return meshgen.Params{
		Components: 100 + rng.Intn(901),
		FanOut:     2 + rng.Intn(4),
		Depth:      3 + rng.Intn(5),
		CycleProb:  0, // cycle-specific properties are tested separately
		Hosts:      1 + rng.Intn(64),
		Seed:       seed,
	}
}

// TestMeshProperties checks the generator's contract over 50 seeds:
//   - same seed ⇒ identical mesh (deep equality),
//   - cycle-prob 0 ⇒ the topology is a DAG,
//   - forward out-degree ≤ FanOut and longest path = layer count − 1,
//   - every component reachable from the entry,
//   - the host partition covers every component exactly once,
//   - the spec validates and the flow model conserves the base rate.
func TestMeshProperties(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		p := propertyParams(seed)
		m, err := meshgen.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m2, err := meshgen.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: regenerate: %v", seed, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("seed %d: same params produced different meshes", seed)
		}

		if got := len(m.Spec.Components); got != p.Components {
			t.Fatalf("seed %d: %d components, want %d", seed, got, p.Components)
		}
		if err := m.Spec.Validate(); err != nil {
			t.Fatalf("seed %d: generated spec invalid: %v", seed, err)
		}

		// DAG when cycle-prob is zero.
		topo := topology(m, false)
		if !acyclic(topo) {
			t.Fatalf("seed %d: cycle-prob 0 produced a cyclic topology", seed)
		}
		if m.CycleEdges != 0 {
			t.Fatalf("seed %d: cycle-prob 0 produced %d cycle edges", seed, m.CycleEdges)
		}

		// Fan-out bound on forward edges; layer widths grow ≤ FanOut-fold.
		layerOf := make(map[string]int)
		for l, layer := range m.Layers {
			for _, name := range layer {
				layerOf[name] = l
			}
		}
		for _, c := range m.Spec.Components {
			forward := 0
			for _, e := range c.Downstream {
				if e.Kind != cloudsim.EdgeBalanced {
					continue
				}
				forward++
				if layerOf[e.To] != layerOf[c.Name]+1 {
					t.Fatalf("seed %d: forward edge %s→%s skips layers", seed, c.Name, e.To)
				}
			}
			if forward > p.FanOut {
				t.Fatalf("seed %d: %s has forward out-degree %d > fanout %d", seed, c.Name, forward, p.FanOut)
			}
		}
		for l := 1; l < len(m.Layers); l++ {
			if len(m.Layers[l]) > len(m.Layers[l-1])*p.FanOut {
				t.Fatalf("seed %d: layer %d width %d exceeds %d×fanout", seed, l, len(m.Layers[l]), len(m.Layers[l-1]))
			}
		}
		// Depth respected: deepening only happens when the requested depth
		// cannot hold the component count under the fan-out bound.
		if len(m.Layers) < p.Depth && countComps(m.Layers) == p.Components {
			capacity := 1
			width := 1
			for l := 1; l < p.Depth; l++ {
				width *= p.FanOut
				capacity += width
			}
			if p.Components <= capacity && len(m.Layers) != p.Depth {
				t.Fatalf("seed %d: %d layers for depth %d, n=%d fits", seed, len(m.Layers), p.Depth, p.Components)
			}
		}

		// Reachability from the entry.
		for _, c := range m.Spec.Components {
			if !topo.HasDirectedPath(meshgen.EntryName, c.Name) {
				t.Fatalf("seed %d: %s unreachable from entry", seed, c.Name)
			}
		}

		// Host partition: every component exactly once, host count ≤ Hosts.
		seen := make(map[string]int)
		for _, h := range m.Hosts() {
			for _, c := range m.HostComps(h) {
				seen[c]++
			}
		}
		if len(m.Hosts()) > p.Hosts {
			t.Fatalf("seed %d: %d hosts, want <= %d", seed, len(m.Hosts()), p.Hosts)
		}
		for _, c := range m.Spec.Components {
			if seen[c.Name] != 1 {
				t.Fatalf("seed %d: component %s appears %d times in the host partition", seed, c.Name, seen[c.Name])
			}
			if m.HostOf[c.Name] == "" {
				t.Fatalf("seed %d: component %s has no host", seed, c.Name)
			}
		}
		if len(seen) != p.Components {
			t.Fatalf("seed %d: host partition covers %d of %d components", seed, len(seen), p.Components)
		}

		// Flow conservation: sink inflow sums to the base rate (balanced
		// forward edges split flow, nothing is created or destroyed).
		var sinkFlow float64
		for _, c := range m.Spec.Components {
			forward := 0
			for _, e := range c.Downstream {
				if e.Kind == cloudsim.EdgeBalanced {
					forward++
				}
			}
			if forward == 0 {
				sinkFlow += m.FlowOf(c.Name)
			}
		}
		if diff := sinkFlow - m.Params.BaseRate; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("seed %d: sink flow %.6f != base rate %.6f", seed, sinkFlow, m.Params.BaseRate)
		}
	}
}

func countComps(layers [][]string) int {
	n := 0
	for _, l := range layers {
		n += len(l)
	}
	return n
}

// TestMeshCycles checks the cycle knob: positive probability eventually
// produces feedback edges, the topology stops being a DAG, and the forward
// skeleton stays acyclic.
func TestMeshCycles(t *testing.T) {
	m, err := meshgen.Generate(meshgen.Params{Components: 300, FanOut: 3, Depth: 6, CycleProb: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m.CycleEdges == 0 {
		t.Fatal("cycle-prob 0.3 over 300 components produced no feedback edges")
	}
	if acyclic(topology(m, false)) {
		t.Error("topology with feedback edges reported acyclic")
	}
	if !acyclic(topology(m, true)) {
		t.Error("forward skeleton must stay a DAG")
	}
	// Feedback edges are low-volume EdgeAll links pointing strictly up.
	layerOf := make(map[string]int)
	for l, layer := range m.Layers {
		for _, name := range layer {
			layerOf[name] = l
		}
	}
	for _, c := range m.Spec.Components {
		for _, e := range c.Downstream {
			if e.Kind != cloudsim.EdgeAll {
				continue
			}
			if layerOf[e.To] >= layerOf[c.Name] {
				t.Errorf("feedback edge %s→%s does not point up", c.Name, e.To)
			}
			if e.Fanout >= 0.5 {
				t.Errorf("feedback edge %s→%s fanout %.2f too heavy", c.Name, e.To, e.Fanout)
			}
		}
	}
}

// TestMeshHelpers covers the accessors fault templates build on.
func TestMeshHelpers(t *testing.T) {
	m, err := meshgen.Generate(meshgen.Params{Components: 100, FanOut: 3, Depth: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.FlowOf(meshgen.EntryName) != m.Params.BaseRate {
		t.Errorf("entry flow = %v, want base rate", m.FlowOf(meshgen.EntryName))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		c := m.PickComponent(rng, 1)
		if c == meshgen.EntryName {
			t.Fatal("PickComponent(minLayer=1) returned the entry")
		}
		ups := m.UpstreamsOf(c)
		if len(ups) == 0 {
			t.Fatalf("%s has no upstream callers", c)
		}
	}
	comps, ok := m.PickSharedHost(rng)
	if !ok || len(comps) < 2 {
		t.Fatalf("PickSharedHost = %v, %v", comps, ok)
	}
	if _, ok := m.SpecOf("no-such"); ok {
		t.Error("SpecOf accepted an unknown name")
	}
	spec, ok := m.SpecOf(comps[0])
	if !ok || spec.Name != comps[0] {
		t.Errorf("SpecOf(%q) = %+v, %v", comps[0], spec.Name, ok)
	}

	// SpecWithTrace re-realizes the workload but keeps topology and SLO.
	s1, s2 := m.SpecWithTrace(1), m.SpecWithTrace(2)
	if s1.SLO != s2.SLO || len(s1.Components) != len(s2.Components) {
		t.Error("SpecWithTrace changed topology or SLO")
	}
	same := true
	for tck := int64(0); tck < 600; tck++ {
		if s1.Trace.Rate(tck) != s2.Trace.Rate(tck) {
			same = false
			break
		}
	}
	if same {
		t.Error("SpecWithTrace with different seeds produced identical traces")
	}
	if s3 := m.SpecWithTrace(1); s3.Trace.Rate(123) != s1.Trace.Rate(123) {
		t.Error("SpecWithTrace is not deterministic per seed")
	}
}
