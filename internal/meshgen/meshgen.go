// Package meshgen generates parameterized microservice meshes as cloudsim
// application specs: layered service topologies of 100–1000 components with
// configurable fan-out, depth, feedback cycles, and multi-tenant host
// sharing.
//
// The FChain paper evaluates on three small fixed applications; meshgen
// provides the scenario-factory side of the matrix evaluation (ROADMAP item
// 4): every mesh is a pure function of its Params — the same seed yields a
// byte-identical spec — so (topology-size × fault-template) accuracy cells
// are reproducible.
//
// Design points the generator guarantees:
//
//   - a single entry gateway; every component reachable from it,
//   - forward out-degree bounded by FanOut; layer widths grow at most
//     FanOut-fold, deepening past the requested depth when the component
//     count exceeds the requested depth's capacity,
//   - every component sized so its design-point utilization at the base
//     arrival rate is Util (≈0.35): per-request CPU cost is derived from the
//     component's steady-state flow share, so faults that saturate any one
//     component breach the latency SLO regardless of how wide its layer is,
//   - feedback edges (cycle probability) are low-volume EdgeAll links
//     (2% sampling) pointing at least one layer up, so request loops carry
//     negligible extra load but create genuine cyclic dependencies,
//   - components are packed onto shared simulated hosts (multi-tenancy), the
//     substrate for noisy-neighbor faults.
package meshgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"fchain/internal/cloudsim"
	"fchain/internal/workload"
)

// Params are the generator knobs. The zero value of any field selects its
// default; Generate normalizes out-of-range values instead of failing.
type Params struct {
	// Components is the total component count including the entry gateway
	// (default 200, clamped to [4, 2000]).
	Components int
	// FanOut bounds every component's forward out-degree (default 3).
	FanOut int
	// Depth is the requested layer count including the entry layer (default
	// 5). When Components exceeds the capacity reachable with FanOut-fold
	// layer growth, the mesh deepens past Depth rather than violating the
	// fan-out bound.
	Depth int
	// CycleProb is the per-component probability (layers ≥ 2) of one
	// feedback edge to a random upper layer (default 0).
	CycleProb float64
	// Hosts is the number of simulated physical hosts the components are
	// packed onto (default Components/4, min 1).
	Hosts int
	// Seed drives every random draw (default 1).
	Seed int64
	// BaseRate is the mean external arrival rate in req/s (default 60).
	BaseRate float64
	// Util is the design-point utilization of every component at BaseRate
	// (default 0.35, clamped to [0.05, 0.8]).
	Util float64
}

func (p Params) withDefaults() Params {
	if p.Components == 0 {
		p.Components = 200
	}
	if p.Components < 4 {
		p.Components = 4
	}
	if p.Components > 2000 {
		p.Components = 2000
	}
	if p.FanOut < 1 {
		p.FanOut = 3
	}
	if p.Depth < 2 {
		p.Depth = 5
	}
	if p.CycleProb < 0 {
		p.CycleProb = 0
	}
	if p.CycleProb > 1 {
		p.CycleProb = 1
	}
	if p.Hosts < 1 {
		p.Hosts = p.Components / 4
		if p.Hosts < 1 {
			p.Hosts = 1
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.BaseRate <= 0 {
		p.BaseRate = 60
	}
	if p.Util <= 0 {
		p.Util = 0.35
	}
	if p.Util < 0.05 {
		p.Util = 0.05
	}
	if p.Util > 0.8 {
		p.Util = 0.8
	}
	return p
}

// String renders the normalized knobs in ParseParams form.
func (p Params) String() string {
	return fmt.Sprintf("n=%d,fanout=%d,depth=%d,cycle=%g,hosts=%d,seed=%d,rate=%g,util=%g",
		p.Components, p.FanOut, p.Depth, p.CycleProb, p.Hosts, p.Seed, p.BaseRate, p.Util)
}

// ParseParams parses the CLI mesh spec string, e.g.
// "n=200,fanout=3,depth=5,seed=7,cycle=0.05". Recognized keys: n (or
// components), fanout, depth, cycle, hosts, seed, rate, util. Omitted keys
// take their defaults; unknown keys are an error.
func ParseParams(s string) (Params, error) {
	var p Params
	if strings.TrimSpace(s) == "" {
		return p.withDefaults(), nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return p, fmt.Errorf("meshgen: malformed mesh parameter %q (want key=value)", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "n", "components":
			v, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("meshgen: %s=%q: %w", key, val, err)
			}
			p.Components = v
		case "fanout":
			v, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("meshgen: fanout=%q: %w", val, err)
			}
			p.FanOut = v
		case "depth":
			v, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("meshgen: depth=%q: %w", val, err)
			}
			p.Depth = v
		case "hosts":
			v, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("meshgen: hosts=%q: %w", val, err)
			}
			p.Hosts = v
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("meshgen: seed=%q: %w", val, err)
			}
			p.Seed = v
		case "cycle":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, fmt.Errorf("meshgen: cycle=%q: %w", val, err)
			}
			p.CycleProb = v
		case "rate":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, fmt.Errorf("meshgen: rate=%q: %w", val, err)
			}
			p.BaseRate = v
		case "util":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return p, fmt.Errorf("meshgen: util=%q: %w", val, err)
			}
			p.Util = v
		default:
			return p, fmt.Errorf("meshgen: unknown mesh parameter %q", key)
		}
	}
	return p.withDefaults(), nil
}

// Mesh is one generated microservice mesh: the simulation spec, the layer
// structure, the multi-tenant host packing, and the design-point flow model
// the fault templates scale their magnitudes from.
type Mesh struct {
	// Params are the normalized knobs the mesh was generated from.
	Params Params
	// Spec is the cloudsim application; its Trace is realized from
	// Params.Seed — use SpecWithTrace to re-realize the workload for an
	// evaluation run seed while keeping the topology fixed.
	Spec cloudsim.AppSpec
	// Layers lists component names per layer, entry layer first.
	Layers [][]string
	// HostOf maps every component to its simulated physical host.
	HostOf map[string]string
	// Flow is the design-point steady-state request rate through each
	// component at BaseRate arrivals.
	Flow map[string]float64
	// CycleEdges counts the feedback edges the cycle probability produced.
	CycleEdges int

	hostComps map[string][]string
	profile   workload.Profile
}

// EntryName is the mesh's single entry gateway component.
const EntryName = "gw"

// Generate builds the mesh for the given knobs. It is deterministic: equal
// (normalized) Params produce byte-identical meshes.
func Generate(p Params) (*Mesh, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	// 1. Layer widths: grow at most FanOut-fold per layer, aiming to spread
	// the remainder evenly over the requested depth, deepening when the
	// requested depth cannot hold Components under the fan-out bound.
	widths := []int{1}
	remaining := p.Components - 1
	for l := 1; remaining > 0; l++ {
		maxw := widths[l-1] * p.FanOut
		w := maxw
		if l < p.Depth-1 {
			layersLeft := p.Depth - l
			ideal := (remaining + layersLeft - 1) / layersLeft
			if ideal < w {
				w = ideal
			}
		}
		if w > remaining {
			w = remaining
		}
		if w < 1 {
			w = 1
		}
		widths = append(widths, w)
		remaining -= w
	}

	layers := make([][]string, len(widths))
	layers[0] = []string{EntryName}
	for l := 1; l < len(widths); l++ {
		layers[l] = make([]string, widths[l])
		for i := range layers[l] {
			layers[l][i] = fmt.Sprintf("m%02d-%03d", l, i)
		}
	}

	// 2. Forward edges, layer by layer: first cover every next-layer
	// component with exactly one parent (shuffled round-robin, so each
	// parent gets at most ceil(next/cur) ≤ FanOut coverage edges), then top
	// parents up with extra random edges to a drawn degree ≤ FanOut.
	edges := make(map[string][]string)          // forward adjacency, construction order
	hasEdge := make(map[string]map[string]bool) // dedupe
	addEdge := func(from, to string) {
		m := hasEdge[from]
		if m == nil {
			m = make(map[string]bool)
			hasEdge[from] = m
		}
		if m[to] {
			return
		}
		m[to] = true
		edges[from] = append(edges[from], to)
	}
	for l := 0; l < len(layers)-1; l++ {
		cur, next := layers[l], layers[l+1]
		nextPerm := rng.Perm(len(next))
		curPerm := rng.Perm(len(cur))
		for j, nj := range nextPerm {
			addEdge(cur[curPerm[j%len(cur)]], next[nj])
		}
		for _, name := range cur {
			want := 1 + rng.Intn(p.FanOut)
			if want > len(next) {
				want = len(next)
			}
			for tries := 0; len(edges[name]) < want && tries < 4*p.FanOut; tries++ {
				addEdge(name, next[rng.Intn(len(next))])
			}
		}
	}

	// 3. Feedback edges: low-volume EdgeAll links at least one layer up.
	cycles := make(map[string]string)
	cycleEdges := 0
	if p.CycleProb > 0 {
		for l := 2; l < len(layers); l++ {
			for _, name := range layers[l] {
				if rng.Float64() >= p.CycleProb {
					continue
				}
				up := layers[1+rng.Intn(l-1)]
				cycles[name] = up[rng.Intn(len(up))]
				cycleEdges++
			}
		}
	}

	// 4. Design-point flow: propagate BaseRate down the layers, splitting
	// each component's throughput evenly over its balanced forward edges
	// (feedback edges carry 2% and are ignored here).
	flow := map[string]float64{EntryName: p.BaseRate}
	for _, layer := range layers {
		for _, name := range layer {
			out := edges[name]
			if len(out) == 0 {
				continue
			}
			share := flow[name] / float64(len(out))
			for _, to := range out {
				flow[to] += share
			}
		}
	}

	// 5. Component specs: per-request CPU cost derived from the flow share
	// so every component idles at Util, with mild jitter.
	const (
		cores    = 2.0
		memMB    = 1024.0
		baseMem  = 300.0
		netMBps  = 150.0
		diskMBps = 60.0
	)
	comps := make([]cloudsim.ComponentSpec, 0, p.Components)
	svcTimes := make(map[string]float64, p.Components)
	costJitter := make(map[string]float64, p.Components)
	for _, layer := range layers {
		for _, name := range layer {
			f := flow[name]
			if f < 0.05 {
				f = 0.05
			}
			jit := 0.9 + 0.2*rng.Float64()
			svc := 0.004 + 0.004*rng.Float64()
			svcTimes[name] = svc
			costJitter[name] = jit
			cs := cloudsim.ComponentSpec{
				Name:            name,
				CPUCores:        cores,
				MemoryMB:        memMB,
				NetMBps:         netMBps,
				DiskMBps:        diskMBps,
				CPUCostPerReq:   round6(p.Util * cores / f * jit),
				MemPerReq:       0.5,
				NetInPerReq:     0.012,
				NetOutPerReq:    0.01,
				DiskReadPerReq:  0.02,
				DiskWritePerReq: 0.012,
				BaseMemMB:       baseMem,
				ServiceTime:     round6(svc),
				QueueCap:        400,
			}
			for _, to := range edges[name] {
				cs.Downstream = append(cs.Downstream, cloudsim.Edge{To: to, Kind: cloudsim.EdgeBalanced, Weight: 1})
			}
			if up, ok := cycles[name]; ok {
				cs.Downstream = append(cs.Downstream, cloudsim.Edge{To: up, Kind: cloudsim.EdgeAll, Fanout: 0.02})
			}
			comps = append(comps, cs)
		}
	}

	// 6. SLO threshold: 3× the analytic design-point end-to-end latency
	// (mirroring the simulator's latency walk with every component at Util),
	// so normal workload variation stays well clear while any saturated
	// component breaches it.
	base := analyticE2E(comps, svcTimes, p.Util)
	threshold := math.Ceil(base*3*1000) / 1000
	if threshold < 0.05 {
		threshold = 0.05
	}

	// 7. Multi-tenant host packing: shuffled round-robin partition.
	names := make([]string, 0, p.Components)
	for _, layer := range layers {
		names = append(names, layer...)
	}
	hostOf := make(map[string]string, p.Components)
	hostComps := make(map[string][]string)
	for i, idx := range rng.Perm(len(names)) {
		host := fmt.Sprintf("host-%03d", i%p.Hosts)
		hostOf[names[idx]] = host
		hostComps[host] = append(hostComps[host], names[idx])
	}
	for _, comps := range hostComps {
		sort.Strings(comps)
	}

	// Periodic components (diurnal + short cycle) are fine: the FFT
	// predictability filter removes them. Spontaneous bursts are not — a
	// burst shortly before an injection plants a pre-injection changepoint
	// that steals the propagation chain's source slot. Mesh scenarios keep
	// the workload burst-free; deliberate workload shifts are what the
	// faultlib trap templates are for.
	profile := workload.Profile{
		Name:          "mesh",
		Base:          p.BaseRate,
		DiurnalAmp:    0.18,
		DiurnalPeriod: 1800,
		ShortAmp:      0.08,
		ShortPeriod:   300,
		NoiseFrac:     0.04,
		NoisePhi:      0.8,
	}
	m := &Mesh{
		Params: p,
		Spec: cloudsim.AppSpec{
			Name:             fmt.Sprintf("mesh-n%d", p.Components),
			Components:       comps,
			Entries:          []string{EntryName},
			Style:            cloudsim.RequestReply,
			SLO:              cloudsim.SLOSpec{Kind: cloudsim.SLOLatency, Threshold: threshold},
			Trace:            workload.NewSynthetic(profile, 3600, p.Seed),
			MeasurementNoise: 0.03,
		},
		Layers:     layers,
		HostOf:     hostOf,
		Flow:       flow,
		CycleEdges: cycleEdges,
		hostComps:  hostComps,
		profile:    profile,
	}
	if err := m.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("meshgen: generated spec invalid: %w", err)
	}
	return m, nil
}

// analyticE2E mirrors the simulator's end-to-end latency walk with every
// component answering in svc/(1-util): balanced edges contribute the
// weighted mean of their targets, fan-out (feedback) edges the maximum, with
// a cycle guard.
func analyticE2E(comps []cloudsim.ComponentSpec, svc map[string]float64, util float64) float64 {
	byName := make(map[string]cloudsim.ComponentSpec, len(comps))
	for _, c := range comps {
		byName[c.Name] = c
	}
	memo := make(map[string]float64, len(comps))
	var walk func(name string, depth int) float64
	walk = func(name string, depth int) float64 {
		if v, ok := memo[name]; ok {
			return v
		}
		if depth > len(comps)+1 {
			return 0
		}
		c := byName[name]
		total := svc[name] / (1 - util)
		var balancedSum, balancedW, allMax float64
		for _, e := range c.Downstream {
			child := walk(e.To, depth+1)
			if e.Kind == cloudsim.EdgeAll {
				if child > allMax {
					allMax = child
				}
				continue
			}
			w := e.Weight
			if w <= 0 {
				w = 1
			}
			balancedSum += child * w
			balancedW += w
		}
		if balancedW > 0 {
			total += balancedSum / balancedW
		}
		total += allMax
		memo[name] = total
		return total
	}
	return walk(EntryName, 0)
}

func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// SpecWithTrace returns the spec with its workload trace re-realized from
// the given seed; the topology, sizing, and SLO stay fixed. Evaluation
// campaigns use this so every trial seed sees a different workload on the
// same mesh.
func (m *Mesh) SpecWithTrace(seed int64) cloudsim.AppSpec {
	spec := m.Spec
	spec.Trace = workload.NewSynthetic(m.profile, 3600, seed)
	return spec
}

// Components returns every component name in layer order.
func (m *Mesh) Components() []string {
	out := make([]string, 0, len(m.Spec.Components))
	for _, c := range m.Spec.Components {
		out = append(out, c.Name)
	}
	return out
}

// SpecOf returns the component spec for name.
func (m *Mesh) SpecOf(name string) (cloudsim.ComponentSpec, bool) {
	for _, c := range m.Spec.Components {
		if c.Name == name {
			return c, true
		}
	}
	return cloudsim.ComponentSpec{}, false
}

// FlowOf returns the design-point request rate through name.
func (m *Mesh) FlowOf(name string) float64 { return m.Flow[name] }

// UpstreamsOf returns the forward-edge callers of name, sorted.
func (m *Mesh) UpstreamsOf(name string) []string {
	var out []string
	for _, c := range m.Spec.Components {
		for _, e := range c.Downstream {
			if e.To == name && e.Kind == cloudsim.EdgeBalanced {
				out = append(out, c.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Hosts returns the host names in sorted order.
func (m *Mesh) Hosts() []string {
	out := make([]string, 0, len(m.hostComps))
	for h := range m.hostComps {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// HostComps returns the components packed onto host, sorted.
func (m *Mesh) HostComps(host string) []string {
	return append([]string(nil), m.hostComps[host]...)
}

// PickComponent draws a random component from layers [minLayer, last].
// minLayer is clamped to the available depth.
func (m *Mesh) PickComponent(rng *rand.Rand, minLayer int) string {
	if minLayer < 0 {
		minLayer = 0
	}
	if minLayer > len(m.Layers)-1 {
		minLayer = len(m.Layers) - 1
	}
	var pool []string
	for _, layer := range m.Layers[minLayer:] {
		pool = append(pool, layer...)
	}
	return pool[rng.Intn(len(pool))]
}

// PickSharedHost draws a random host with at least two tenants and returns
// its components; ok=false when every host has a single tenant.
func (m *Mesh) PickSharedHost(rng *rand.Rand) ([]string, bool) {
	var eligible []string
	for _, h := range m.Hosts() {
		if len(m.hostComps[h]) >= 2 {
			eligible = append(eligible, h)
		}
	}
	if len(eligible) == 0 {
		return nil, false
	}
	return m.HostComps(eligible[rng.Intn(len(eligible))]), true
}

// String summarizes the mesh.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh n=%d layers=%d (requested depth %d) fanout<=%d cycle-edges=%d hosts=%d slo=%.3fs seed=%d",
		m.Params.Components, len(m.Layers), m.Params.Depth, m.Params.FanOut,
		m.CycleEdges, m.Params.Hosts, m.Spec.SLO.Threshold, m.Params.Seed)
}
