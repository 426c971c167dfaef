package cloudsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// Comp is the runtime state of one simulated component (guest VM). Fault
// implementations receive it each tick to perturb resources; everything else
// should treat it as read-only.
type Comp struct {
	Spec ComponentSpec

	// Queue is the number of requests waiting for service (fluid model).
	// For join components it mirrors the sum of SrcQueue.
	Queue float64

	// SrcQueue tracks queued tuples per upstream source for join
	// components (nil otherwise).
	SrcQueue map[string]float64

	// OutBuf holds processed-but-not-yet-dispatched work for components
	// with batched dispatch (DispatchEvery > 1).
	OutBuf float64

	// Persistent fault state.
	LeakMB float64 // accumulated leaked memory

	// Per-tick fault overlays, reset at the start of every tick.
	HogCPU         float64            // cores consumed by a co-located hog
	HogNetIn       float64            // MB/s of hostile inbound traffic
	HogDiskRead    float64            // MB/s of hostile disk reads
	HogDiskWrite   float64            // MB/s of hostile disk writes
	CPUCapFactor   float64            // cap multiplier (1 = uncapped)
	Slowdown       float64            // service-time multiplier (1 = none)
	ExtraCPUPerReq float64            // added core-seconds per request
	WeightOverride map[string]float64 // balanced-edge weight overrides

	// Validation-time resource scaling (1 = unscaled).
	ScaleCPU, ScaleMem, ScaleNet, ScaleDisk float64

	// Per-tick accounting (outputs of the last tick).
	arrivals     float64            // merged into Queue at tick start
	inboxNext    float64            // requests dispatched to us this tick
	inboxBySrc   map[string]float64 // per-source inbox for join components
	netInboundMB float64            // network received from upstream this tick
	processed    float64
	dispatched   float64
	dropped      float64
	latency      float64 // this component's local response-time estimate
	memUsedMB    float64
	netInMB      float64
	netOutMB     float64
	diskReadMB   float64
	diskWrite    float64
	cpuPct       float64

	idx  int     // position in Sim.names
	down []*Comp // Spec.Downstream targets, edge for edge
}

func (c *Comp) resetOverlays() {
	c.HogCPU = 0
	c.HogNetIn = 0
	c.HogDiskRead = 0
	c.HogDiskWrite = 0
	c.CPUCapFactor = 1
	c.Slowdown = 1
	c.ExtraCPUPerReq = 0
	c.WeightOverride = nil
}

// Fault perturbs one or more components each tick. Implementations must be
// stateless: all mutable state lives in Comp so that Sim.Clone produces an
// independent but identical world.
type Fault interface {
	// Name identifies the fault type (e.g. "memleak").
	Name() string
	// Targets lists the ground-truth faulty components. The simulator
	// reads it when the fault is injected and when the simulation is
	// cloned, so it must not change over time.
	Targets() []string
	// Start is the injection time (tick).
	Start() int64
	// Apply perturbs target component c at tick t (only called for
	// t >= Start and c in Targets).
	Apply(t int64, c *Comp)
}

// Sim is the discrete-time simulation of one application.
type Sim struct {
	spec  AppSpec
	comps map[string]*Comp
	order []string // reverse-topological processing order
	names []string // stable component order

	faults []Fault
	now    int64
	seed   int64
	rng    *rand.Rand

	history  map[string]*[metric.NumKinds + 1]*timeseries.Series
	latency  *timeseries.Series // end-to-end latency per tick
	progress *timeseries.Series // cumulative completed work per tick
	violated *timeseries.Series // 1 when the SLO was violated at the tick

	completedRecent []float64 // ring of per-tick completions for progress SLO
	baselineRate    float64   // learned pre-fault throughput
	baselineN       int

	// The index a tick walks instead of the name-keyed maps. It points into
	// this Sim's own components and history, so Clone rebuilds it.
	byName  []*Comp // components in names order
	hist    []*[metric.NumKinds + 1]*timeseries.Series
	byOrder []*Comp   // components in processing order
	entries []*Comp   // spec.Entries
	targets [][]*Comp // per fault, its Targets()

	// Per-tick scratch, cleared and reused, never shared with a clone.
	balanced []int     // indices of a component's balanced edges
	slots    []slot    // dispatchBalanced's targets
	e2e      []float64 // endToEndLatency's memo, by Comp.idx
	e2eDone  []bool
}

// New constructs a simulator for the given application spec.
func New(spec AppSpec, seed int64) (*Sim, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.SLO = spec.SLO.withDefaults()
	if spec.MeasurementNoise <= 0 {
		spec.MeasurementNoise = 0.02
	}
	s := &Sim{
		spec:    spec,
		comps:   make(map[string]*Comp, len(spec.Components)),
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		history: make(map[string]*[metric.NumKinds + 1]*timeseries.Series),
	}
	for _, cs := range spec.Components {
		cs = cs.withDefaults()
		c := &Comp{Spec: cs, CPUCapFactor: 1, Slowdown: 1, ScaleCPU: 1, ScaleMem: 1, ScaleNet: 1, ScaleDisk: 1}
		if cs.Join {
			c.SrcQueue = make(map[string]float64)
			c.inboxBySrc = make(map[string]float64)
		}
		s.comps[cs.Name] = c
		s.names = append(s.names, cs.Name)
		var hist [metric.NumKinds + 1]*timeseries.Series
		for _, k := range metric.Kinds {
			hist[k] = timeseries.New(0, nil)
		}
		s.history[cs.Name] = &hist
	}
	sort.Strings(s.names)
	s.order = s.reverseTopoOrder()
	s.latency = timeseries.New(0, nil)
	s.progress = timeseries.New(0, nil)
	s.violated = timeseries.New(0, nil)
	s.buildIndex()
	return s, nil
}

// buildIndex resolves every name a tick would look up to this Sim's own
// components and history, and sizes the latency memo.
func (s *Sim) buildIndex() {
	s.byName = make([]*Comp, len(s.names))
	s.hist = make([]*[metric.NumKinds + 1]*timeseries.Series, len(s.names))
	for i, name := range s.names {
		c := s.comps[name]
		c.idx = i
		c.down = make([]*Comp, len(c.Spec.Downstream))
		for j, e := range c.Spec.Downstream {
			c.down[j] = s.comps[e.To]
		}
		s.byName[i] = c
		s.hist[i] = s.history[name]
	}
	s.byOrder = s.resolve(s.order)
	s.entries = s.resolve(s.spec.Entries)
	s.targets = make([][]*Comp, len(s.faults))
	for i, f := range s.faults {
		s.targets[i] = s.resolve(f.Targets())
	}
	s.e2e = make([]float64, len(s.names))
	s.e2eDone = make([]bool, len(s.names))
}

func (s *Sim) resolve(names []string) []*Comp {
	out := make([]*Comp, len(names))
	for i, name := range names {
		out[i] = s.comps[name]
	}
	return out
}

// reverseTopoOrder sorts components so that every component appears after
// all of its downstream targets (sinks first). Cycles, which the specs do
// not produce, fall back to insertion order.
func (s *Sim) reverseTopoOrder() []string {
	state := make(map[string]int, len(s.comps)) // 0=unseen 1=visiting 2=done
	var order []string
	var visit func(name string)
	visit = func(name string) {
		if state[name] != 0 {
			return
		}
		state[name] = 1
		for _, e := range s.comps[name].Spec.Downstream {
			if state[e.To] == 0 {
				visit(e.To)
			}
		}
		state[name] = 2
		order = append(order, name)
	}
	for _, n := range s.names {
		visit(n)
	}
	return order
}

// Now returns the current simulation time (seconds since start).
func (s *Sim) Now() int64 { return s.now }

// Components returns the component names in sorted order.
func (s *Sim) Components() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Inject registers a fault. Faults may be injected at any time before their
// start tick.
func (s *Sim) Inject(f Fault) error {
	for _, tgt := range f.Targets() {
		if _, ok := s.comps[tgt]; !ok {
			return fmt.Errorf("cloudsim: fault %q targets unknown component %q", f.Name(), tgt)
		}
	}
	s.faults = append(s.faults, f)
	s.targets = append(s.targets, s.resolve(f.Targets()))
	return nil
}

// Step advances the simulation by n ticks.
func (s *Sim) Step(n int) {
	for i := 0; i < n; i++ {
		s.tick()
	}
}

// RunUntil advances the simulation until Now() reaches t.
func (s *Sim) RunUntil(t int64) {
	for s.now < t {
		s.tick()
	}
}

func (s *Sim) tick() {
	t := s.now

	// 1. External arrivals.
	rate := s.spec.Trace.Rate(t)
	share := rate / float64(len(s.spec.Entries))
	for _, c := range s.entries {
		c.arrivals += share
	}

	// 2. Fault perturbation (and per-tick counters).
	for _, c := range s.byName {
		c.resetOverlays()
		c.netInboundMB = 0
	}
	for i, f := range s.faults {
		if t < f.Start() {
			continue
		}
		for _, c := range s.targets[i] {
			f.Apply(t, c)
		}
	}

	// 3. Process components, sinks first, so downstream free space reflects
	// this tick's drain and each hop of propagation costs one tick.
	var completed float64
	for _, c := range s.byOrder {
		completed += s.processComponent(c)
	}

	// 4. Move dispatched requests into queues for the next tick.
	for _, c := range s.byName {
		c.Queue += c.inboxNext
		c.inboxNext = 0
		c.arrivals = 0
		if c.Spec.Join {
			for src, amt := range c.inboxBySrc {
				c.SrcQueue[src] += amt
				delete(c.inboxBySrc, src)
			}
		}
	}

	// 5. Metrics, end-to-end latency, progress, SLO.
	s.recordMetrics(t)
	e2e := s.endToEndLatency()
	s.latency.Append(e2e)
	var prevProgress float64
	if s.progress.Len() > 0 {
		prevProgress = s.progress.At(s.progress.Len() - 1)
	}
	s.progress.Append(prevProgress + completed)
	s.recordSLO(t, e2e, completed)

	s.now++
}

// processComponent runs one tick of request service for a component and
// returns the completed work units it finalized (work completed at sinks).
func (s *Sim) processComponent(c *Comp) float64 {
	sp := c.Spec

	// Merge this tick's external arrivals; drop on overflow.
	free := float64(sp.QueueCap) - c.Queue
	if free < 0 {
		free = 0
	}
	accepted := math.Min(c.arrivals, free)
	c.dropped = c.arrivals - accepted
	c.Queue += accepted
	if sp.Join && accepted > 0 {
		c.SrcQueue["external"] += accepted
	}
	c.netInMB = accepted*sp.NetInPerReq + c.HogNetIn

	// Memory pressure from leak + queue + buffered output.
	memCap := sp.MemoryMB * c.ScaleMem
	c.memUsedMB = sp.BaseMemMB + (c.Queue+c.OutBuf)*sp.MemPerReq + c.LeakMB
	pressure := 0.0
	if memCap > 0 {
		pressure = (c.memUsedMB/memCap - 0.85) / 0.15
	}
	if pressure < 0 {
		pressure = 0
	}
	effSlow := c.Slowdown * (1 + 6*pressure*pressure)

	// Capacity: the most constrained resource bounds request service.
	capReq := math.Inf(1)
	cpuCost := (sp.CPUCostPerReq + c.ExtraCPUPerReq) * effSlow
	effCPU := sp.CPUCores*c.ScaleCPU*c.CPUCapFactor - c.HogCPU
	if effCPU < 0.001 {
		effCPU = 0.001 // a starved VM still makes negligible progress
	}
	if cpuCost > 0 {
		capReq = math.Min(capReq, effCPU/cpuCost)
	}
	if sp.NetInPerReq > 0 {
		effNet := sp.NetMBps*c.ScaleNet - c.HogNetIn
		if effNet < 0.1 {
			effNet = 0.1
		}
		capReq = math.Min(capReq, effNet/sp.NetInPerReq)
	}
	diskPerReq := sp.DiskReadPerReq + sp.DiskWritePerReq
	if diskPerReq > 0 {
		effDisk := sp.DiskMBps*c.ScaleDisk - c.HogDiskRead - c.HogDiskWrite
		if effDisk < 0.1 {
			effDisk = 0.1
		}
		capReq = math.Min(capReq, effDisk/diskPerReq)
	}
	if math.IsInf(capReq, 1) {
		capReq = c.Queue // no resource model: drain freely
	}

	// Back-pressure: processing cannot exceed downstream free queue space
	// (continuous dispatch) or remaining output-buffer capacity (batched
	// dispatch).
	limit := capReq
	batched := sp.DispatchEvery > 1
	if batched {
		limit = math.Min(limit, float64(sp.OutBufCap)-c.OutBuf)
	} else {
		limit = math.Min(limit, s.downstreamSpace(c))
	}

	// A join component can only process matched tuple sets: one tuple from
	// every known upstream source per unit of work.
	available := c.Queue
	var joinSources int
	if sp.Join {
		joinSources = len(c.SrcQueue)
		matched := math.Inf(1)
		for _, q := range c.SrcQueue {
			matched = math.Min(matched, q)
		}
		if joinSources == 0 || math.IsInf(matched, 1) {
			matched = 0
		}
		available = matched
	}

	if limit < 0 {
		limit = 0
	}
	processed := math.Min(available, limit)
	if sp.Join {
		for src := range c.SrcQueue {
			c.SrcQueue[src] -= processed
			if c.SrcQueue[src] < 0 {
				c.SrcQueue[src] = 0
			}
		}
		c.Queue -= processed * float64(joinSources)
		if c.Queue < 0 {
			c.Queue = 0
		}
	} else {
		c.Queue -= processed
	}
	c.processed = processed

	// Dispatch downstream (visible next tick). Batched components flush
	// their buffered output on their wave schedule, subject to downstream
	// space; the remainder stays buffered.
	toSend := processed
	if batched {
		c.OutBuf += processed
		toSend = 0
		if (s.now+sp.DispatchPhase)%sp.DispatchEvery == 0 {
			toSend = math.Min(c.OutBuf, s.downstreamSpace(c))
			if toSend < 0 {
				toSend = 0
			}
			c.OutBuf -= toSend
		}
	}
	var dispatched float64
	if toSend > 0 {
		// Balanced edges: waterfill by weight, capped by free space.
		s.balanced = s.balanced[:0]
		for i, e := range c.Spec.Downstream {
			fan := e.Fanout
			if fan <= 0 {
				fan = 1
			}
			if e.Kind == EdgeAll {
				d := c.down[i]
				amount := toSend * fan
				d.inboxNext += amount
				d.netInboundMB += amount * d.Spec.NetInPerReq
				if d.Spec.Join {
					d.inboxBySrc[c.Spec.Name] += amount
				}
				dispatched += amount
				continue
			}
			s.balanced = append(s.balanced, i)
		}
		if len(s.balanced) > 0 {
			dispatched += s.dispatchBalanced(c, s.balanced, toSend)
		}
	}
	c.dispatched = dispatched

	// Local latency estimate: service time inflated by load, plus queueing
	// delay at the current drain rate.
	svcUtil := 0.0
	if capReq > 0 {
		svcUtil = processed / capReq
	}
	if svcUtil > 0.98 {
		svcUtil = 0.98
	}
	wait := 0.0
	drain := math.Max(processed, 1)
	wait = c.Queue / drain
	c.latency = sp.ServiceTime*effSlow/(1-svcUtil) + wait

	// Resource accounting for metrics.
	c.cpuPct = 100 * math.Min(1, (processed*cpuCost+c.HogCPU)/sp.CPUCores)
	c.netOutMB = dispatched * sp.NetOutPerReq
	c.diskReadMB = processed*sp.DiskReadPerReq + c.HogDiskRead
	c.diskWrite = processed*sp.DiskWritePerReq + c.HogDiskWrite

	if len(c.Spec.Downstream) == 0 {
		return processed // work finished at a sink
	}
	return 0
}

// downstreamSpace returns how many units c could dispatch right now given
// its downstream components' free queue space.
func (s *Sim) downstreamSpace(c *Comp) float64 {
	space := math.Inf(1)
	var balancedFree float64
	hasBalanced := false
	for i, e := range c.Spec.Downstream {
		dfree := freeSpace(c.down[i], c.Spec.Name)
		fan := e.Fanout
		if fan <= 0 {
			fan = 1
		}
		switch e.Kind {
		case EdgeAll:
			space = math.Min(space, dfree/fan)
		default:
			hasBalanced = true
			balancedFree += dfree / fan
		}
	}
	if hasBalanced {
		space = math.Min(space, balancedFree)
	}
	if math.IsInf(space, 1) {
		return math.MaxFloat64 / 4
	}
	return space
}

// freeSpace returns the queue space component d can still accept from
// source src. Join components maintain one buffer per input stream (each
// with the spec's QueueCap), so one over-full input does not block the
// others — but a starved join still back-pressures the inputs that keep
// producing, which is how anomalies travel upstream through stream joins.
func freeSpace(d *Comp, src string) float64 {
	var f float64
	if d.Spec.Join {
		f = float64(d.Spec.QueueCap) - d.SrcQueue[src] - d.inboxBySrc[src]
	} else {
		f = float64(d.Spec.QueueCap) - d.Queue - d.inboxNext
	}
	if f < 0 {
		f = 0
	}
	return f
}

// slot is one balanced downstream target during dispatchBalanced.
type slot struct {
	d      *Comp
	weight float64
	fanout float64
	free   float64
}

// dispatchBalanced distributes processed requests among c's balanced
// downstream edges (indices into its Spec.Downstream) proportionally to
// their (possibly overridden) weights, spilling to edges with remaining
// space when a preferred target is full. Returns the dispatched amount.
func (s *Sim) dispatchBalanced(c *Comp, edges []int, processed float64) float64 {
	slots := s.slots[:0]
	var totalW float64
	for _, i := range edges {
		e := c.Spec.Downstream[i]
		d := c.down[i]
		w := e.Weight
		if w <= 0 {
			w = 1
		}
		if ov, ok := c.WeightOverride[e.To]; ok {
			w = ov
		}
		fan := e.Fanout
		if fan <= 0 {
			fan = 1
		}
		dfree := freeSpace(d, c.Spec.Name)
		slots = append(slots, slot{d: d, weight: w, fanout: fan, free: dfree / fan})
		totalW += w
	}
	s.slots = slots
	if totalW == 0 {
		return 0
	}
	remaining := processed
	var dispatched float64
	// Two passes: proportional, then spill.
	for pass := 0; pass < 2 && remaining > 1e-9; pass++ {
		var passW float64
		for _, sl := range slots {
			if sl.free > 1e-9 {
				passW += sl.weight
			}
		}
		if passW == 0 {
			break
		}
		budget := remaining
		for i := range slots {
			sl := &slots[i]
			if sl.free <= 1e-9 {
				continue
			}
			want := budget * sl.weight / passW
			give := math.Min(want, sl.free)
			sl.d.inboxNext += give * sl.fanout
			sl.d.netInboundMB += give * sl.fanout * sl.d.Spec.NetInPerReq
			if sl.d.Spec.Join {
				sl.d.inboxBySrc[c.Spec.Name] += give * sl.fanout
			}
			sl.free -= give
			remaining -= give
			dispatched += give * sl.fanout
		}
	}
	return dispatched
}

// endToEndLatency estimates the application's response time this tick: the
// average over entry components of the latency accumulated along the
// downstream paths (balanced edges contribute the weighted mean of their
// targets, fan-out edges the maximum).
func (s *Sim) endToEndLatency() float64 {
	clear(s.e2eDone)
	var sum float64
	for _, c := range s.entries {
		sum += s.pathLatency(c, 0)
	}
	return sum / float64(len(s.entries))
}

// pathLatency is c's latency plus that of its downstream paths, memoized
// per tick in s.e2e.
func (s *Sim) pathLatency(c *Comp, depth int) float64 {
	if s.e2eDone[c.idx] {
		return s.e2e[c.idx]
	}
	if depth > len(s.comps)+1 { // cycle guard
		return 0
	}
	total := c.latency
	var balancedSum, balancedW, allMax float64
	for i, e := range c.Spec.Downstream {
		child := s.pathLatency(c.down[i], depth+1)
		if e.Kind == EdgeAll {
			if child > allMax {
				allMax = child
			}
			continue
		}
		w := e.Weight
		if w <= 0 {
			w = 1
		}
		if ov, ok := c.WeightOverride[e.To]; ok {
			w = ov
		}
		balancedSum += child * w
		balancedW += w
	}
	if balancedW > 0 {
		total += balancedSum / balancedW
	}
	total += allMax
	s.e2e[c.idx], s.e2eDone[c.idx] = total, true
	return total
}

// recordMetrics appends this tick's noisy metric samples to the history.
func (s *Sim) recordMetrics(t int64) {
	noise := func(v float64) float64 {
		if v < 0 {
			v = 0
		}
		n := v * s.spec.MeasurementNoise * s.rng.NormFloat64()
		out := v + n
		if out < 0 {
			out = 0
		}
		return out
	}
	for i, c := range s.byName {
		h := s.hist[i]
		h[metric.CPU].Append(noise(c.cpuPct))
		h[metric.Memory].Append(noise(c.memUsedMB))
		h[metric.NetIn].Append(noise(c.netInMB + c.netInboundMB))
		h[metric.NetOut].Append(noise(c.netOutMB))
		h[metric.DiskRead].Append(noise(c.diskReadMB))
		h[metric.DiskWrite].Append(noise(c.diskWrite))
	}
	_ = t
}

// recordSLO judges the SLO for this tick.
func (s *Sim) recordSLO(t int64, e2e, completed float64) {
	violated := 0.0
	switch s.spec.SLO.Kind {
	case SLOProgress:
		s.completedRecent = append(s.completedRecent, completed)
		w := s.spec.SLO.StallWindow
		if len(s.completedRecent) > w {
			s.completedRecent = s.completedRecent[len(s.completedRecent)-w:]
		}
		// Learn the baseline throughput from the warm, pre-fault phase.
		if t >= 30 && t < s.firstFaultStart() {
			s.baselineRate += completed
			s.baselineN++
		}
		if len(s.completedRecent) == w && s.baselineN > 0 {
			var recent float64
			for _, v := range s.completedRecent {
				recent += v
			}
			base := s.baselineRate / float64(s.baselineN)
			if recent < s.spec.SLO.StallFraction*base*float64(w) {
				violated = 1
			}
		}
	default: // SLOLatency
		if e2e > s.spec.SLO.Threshold {
			violated = 1
		}
	}
	s.violated.Append(violated)
}

func (s *Sim) firstFaultStart() int64 {
	first := int64(math.MaxInt64)
	for _, f := range s.faults {
		if f.Start() < first {
			first = f.Start()
		}
	}
	return first
}

// Series returns the recorded history for one component metric. The
// returned series is a snapshot copy.
func (s *Sim) Series(component string, k metric.Kind) (*timeseries.Series, error) {
	h, ok := s.history[component]
	if !ok {
		return nil, fmt.Errorf("cloudsim: unknown component %q", component)
	}
	if !k.Valid() {
		return nil, fmt.Errorf("cloudsim: invalid metric kind %v", k)
	}
	src := h[k]
	return timeseries.New(src.Start(), src.Values()), nil
}

// FirstViolation returns the first tick >= after at which the SLO was
// violated for minSustain consecutive ticks, or ok=false.
func (s *Sim) FirstViolation(after int64, minSustain int) (int64, bool) {
	if minSustain < 1 {
		minSustain = 1
	}
	run := 0
	for i := 0; i < s.violated.Len(); i++ {
		if s.violated.TimeAt(i) < after {
			continue
		}
		if s.violated.At(i) > 0 {
			run++
			if run >= minSustain {
				return s.violated.TimeAt(i), true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// SLOMetric returns the mean violation magnitude over [from, to): the mean
// end-to-end latency for latency SLOs, or the mean progress shortfall
// (1 − observed/baseline throughput, clamped at 0) for progress SLOs.
// Online validation compares this quantity across trials.
func (s *Sim) SLOMetric(from, to int64) float64 {
	if s.spec.SLO.Kind == SLOProgress {
		w := s.progress.Window(from, to)
		if w.Len() < 2 || s.baselineN == 0 {
			return 0
		}
		rate := (w.At(w.Len()-1) - w.At(0)) / float64(w.Len()-1)
		base := s.baselineRate / float64(s.baselineN)
		if base <= 0 {
			return 0
		}
		short := 1 - rate/base
		if short < 0 {
			short = 0
		}
		return short
	}
	w := s.latency.Window(from, to)
	if w.Len() == 0 {
		return 0
	}
	return timeseries.Mean(w.Values())
}

// ScaleResource adjusts a component's capacity for the resource underlying
// metric kind k by the given factor (>1 scales up). This is the hook used
// by FChain's online pinpointing validation (paper §II-A): scaling the
// implicated resource on a true culprit relieves the SLO violation.
func (s *Sim) ScaleResource(component string, k metric.Kind, factor float64) error {
	c, ok := s.comps[component]
	if !ok {
		return fmt.Errorf("cloudsim: unknown component %q", component)
	}
	if factor <= 0 {
		return fmt.Errorf("cloudsim: non-positive scale factor %v", factor)
	}
	switch k {
	case metric.CPU:
		c.ScaleCPU *= factor
	case metric.Memory:
		c.ScaleMem *= factor
	case metric.NetIn, metric.NetOut:
		c.ScaleNet *= factor
	case metric.DiskRead, metric.DiskWrite:
		c.ScaleDisk *= factor
	default:
		return fmt.Errorf("cloudsim: invalid metric kind %v", k)
	}
	return nil
}

// Clone returns an independent deep copy of the simulation, used by online
// validation to trial resource adjustments without disturbing the primary
// timeline. The clone's RNG is reseeded deterministically from the original
// seed and current tick.
func (s *Sim) Clone() *Sim {
	out := &Sim{
		spec:         s.spec,
		comps:        make(map[string]*Comp, len(s.comps)),
		order:        append([]string(nil), s.order...),
		names:        append([]string(nil), s.names...),
		faults:       append([]Fault(nil), s.faults...),
		now:          s.now,
		seed:         s.seed,
		rng:          rand.New(rand.NewSource(s.seed*1000003 + s.now)),
		history:      make(map[string]*[metric.NumKinds + 1]*timeseries.Series, len(s.history)),
		latency:      timeseries.New(s.latency.Start(), s.latency.Values()),
		progress:     timeseries.New(s.progress.Start(), s.progress.Values()),
		violated:     timeseries.New(s.violated.Start(), s.violated.Values()),
		baselineRate: s.baselineRate,
		baselineN:    s.baselineN,
	}
	out.completedRecent = append([]float64(nil), s.completedRecent...)
	for name, c := range s.comps {
		cp := *c
		if c.WeightOverride != nil {
			cp.WeightOverride = make(map[string]float64, len(c.WeightOverride))
			for k, v := range c.WeightOverride {
				cp.WeightOverride[k] = v
			}
		}
		if c.SrcQueue != nil {
			cp.SrcQueue = make(map[string]float64, len(c.SrcQueue))
			for k, v := range c.SrcQueue {
				cp.SrcQueue[k] = v
			}
		}
		if c.inboxBySrc != nil {
			cp.inboxBySrc = make(map[string]float64, len(c.inboxBySrc))
			for k, v := range c.inboxBySrc {
				cp.inboxBySrc[k] = v
			}
		}
		out.comps[name] = &cp
	}
	for name, h := range s.history {
		var hist [metric.NumKinds + 1]*timeseries.Series
		for _, k := range metric.Kinds {
			hist[k] = timeseries.New(h[k].Start(), h[k].Values())
		}
		out.history[name] = &hist
	}
	out.buildIndex()
	return out
}
