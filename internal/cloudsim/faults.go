package cloudsim

import (
	"math"
	"sort"
)

// baseFault carries the common fault fields. Faults are stateless: every
// perturbation is a pure function of (tick, component state), so Sim.Clone
// stays cheap and exact.
type baseFault struct {
	name    string
	targets []string
	start   int64
}

func (b baseFault) Name() string      { return b.name }
func (b baseFault) Targets() []string { return append([]string(nil), b.targets...) }
func (b baseFault) Start() int64      { return b.start }

// MemLeak models a memory-leak bug: the target's resident memory grows by
// RateMB every second. Manifestation is gradual — once usage approaches the
// VM's memory capacity the simulator's pressure model slows service down
// (paper: RUBiS MemLeak at the database, System S MemLeak in a PE, Hadoop
// concurrent MemLeak in all map tasks).
type MemLeak struct {
	baseFault
	RateMB float64
}

// NewMemLeak injects a memory leak of rateMB MB/s into the targets at tick
// start.
func NewMemLeak(start int64, rateMB float64, targets ...string) *MemLeak {
	return &MemLeak{baseFault: baseFault{name: "memleak", targets: targets, start: start}, RateMB: rateMB}
}

// Apply implements Fault.
func (f *MemLeak) Apply(t int64, c *Comp) {
	c.LeakMB += f.RateMB
}

// CPUHog models a CPU-bound co-located program (or an infinite-loop bug)
// competing for the target's cores. Manifestation is immediate.
type CPUHog struct {
	baseFault
	Cores float64
}

// NewCPUHog injects a hog consuming the given cores on each target.
func NewCPUHog(start int64, cores float64, targets ...string) *CPUHog {
	return &CPUHog{baseFault: baseFault{name: "cpuhog", targets: targets, start: start}, Cores: cores}
}

// Apply implements Fault.
func (f *CPUHog) Apply(t int64, c *Comp) {
	c.HogCPU += f.Cores
}

// NetHog models an httperf-style flood of requests at the target,
// saturating its inbound network bandwidth.
type NetHog struct {
	baseFault
	MBps float64
}

// NewNetHog injects hostile inbound traffic of mbps MB/s.
func NewNetHog(start int64, mbps float64, targets ...string) *NetHog {
	return &NetHog{baseFault: baseFault{name: "nethog", targets: targets, start: start}, MBps: mbps}
}

// Apply implements Fault.
func (f *NetHog) Apply(t int64, c *Comp) {
	c.HogNetIn += f.MBps
}

// DiskHog models a disk-I/O-intensive program in the host's Domain 0
// stealing disk bandwidth from the target VM. It ramps up slowly, which is
// why the paper needs a longer look-back window (500 s) for this fault.
type DiskHog struct {
	baseFault
	MBps    float64 // peak stolen bandwidth
	RampSec float64 // seconds to reach the peak
}

// NewDiskHog injects a disk hog reaching mbps MB/s after rampSec seconds.
func NewDiskHog(start int64, mbps, rampSec float64, targets ...string) *DiskHog {
	if rampSec <= 0 {
		rampSec = 1
	}
	return &DiskHog{baseFault: baseFault{name: "diskhog", targets: targets, start: start}, MBps: mbps, RampSec: rampSec}
}

// Apply implements Fault.
func (f *DiskHog) Apply(t int64, c *Comp) {
	frac := float64(t-f.start) / f.RampSec
	if frac > 1 {
		frac = 1
	}
	amount := f.MBps * frac
	c.HogDiskRead += amount * 0.3
	c.HogDiskWrite += amount * 0.7
}

// Bottleneck models an operator error that sets a low CPU cap on the target
// VM (paper: System S bottleneck fault via a low CPU cap over a PE).
type Bottleneck struct {
	baseFault
	CapFraction float64 // remaining fraction of CPU, e.g. 0.3
}

// NewBottleneck caps the targets' CPU at capFraction of nominal.
func NewBottleneck(start int64, capFraction float64, targets ...string) *Bottleneck {
	if capFraction <= 0 {
		capFraction = 0.3
	}
	return &Bottleneck{baseFault: baseFault{name: "bottleneck", targets: targets, start: start}, CapFraction: capFraction}
}

// Apply implements Fault.
func (f *Bottleneck) Apply(t int64, c *Comp) {
	c.CPUCapFactor = math.Min(c.CPUCapFactor, f.CapFraction)
}

// GroundTruther lets a fault report a ground-truth faulty set that differs
// from the components it perturbs: the LB bug is applied at the balancer,
// but the components manifesting the concurrent fault — and the ones the
// paper scores against — are the unevenly loaded backends.
type GroundTruther interface {
	GroundTruth() []string
}

// LBBug models the mod_jk 1.2.30 load-balancing bug: the web tier
// dispatches requests unevenly across the application servers. The paper
// classifies it as a multi-component concurrent fault: both application
// servers manifest it together (one overloaded, one starved), so they form
// the ground-truth faulty set while the perturbation is applied at the
// balancer.
type LBBug struct {
	baseFault
	// Weights overrides the balanced-edge weights (target -> weight).
	Weights map[string]float64
	// OverloadSlowdown is the service-time multiplier suffered by the
	// backend that receives the skewed majority of the traffic (mod_jk
	// 1.2.30 additionally caused retry churn on the overloaded worker);
	// 0 disables it.
	OverloadSlowdown float64
	balancer         string
	heaviest         string
}

var _ GroundTruther = (*LBBug)(nil)

// NewLBBug skews the balancer's edge weights from tick start and slows the
// majority-share backend down by overloadSlowdown (1 or 0 = no slowdown).
func NewLBBug(start int64, balancer string, weights map[string]float64, overloadSlowdown float64) *LBBug {
	w := make(map[string]float64, len(weights))
	heaviest, best := "", -1.0
	for k, v := range weights {
		w[k] = v
		if v > best {
			heaviest, best = k, v
		}
	}
	targets := []string{balancer}
	if overloadSlowdown > 1 && heaviest != "" {
		targets = append(targets, heaviest)
	}
	return &LBBug{
		baseFault:        baseFault{name: "lbbug", targets: targets, start: start},
		Weights:          w,
		OverloadSlowdown: overloadSlowdown,
		balancer:         balancer,
		heaviest:         heaviest,
	}
}

// GroundTruth implements GroundTruther: the backends whose load the bug
// skews.
func (f *LBBug) GroundTruth() []string {
	out := make([]string, 0, len(f.Weights))
	for k := range f.Weights {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Apply implements Fault.
func (f *LBBug) Apply(t int64, c *Comp) {
	switch c.Spec.Name {
	case f.balancer:
		if c.WeightOverride == nil {
			c.WeightOverride = make(map[string]float64, len(f.Weights))
		}
		for k, v := range f.Weights {
			c.WeightOverride[k] = v
		}
	case f.heaviest:
		if f.OverloadSlowdown > 1 {
			c.Slowdown *= f.OverloadSlowdown
		}
	}
}

// OffloadBug models JBoss bug JIRA #JBAS-1442: application server 1 tries
// to offload EJBs to application server 2, but the remote lookup returns
// the local binding, so the work stays on server 1 (which overloads) while
// server 2 sits anomalously idle. Both application servers manifest
// abnormal behaviour concurrently, so the paper treats it as a
// multi-component fault.
type OffloadBug struct {
	baseFault
	// ExtraCPUPerReq is the added per-request cost on the overloaded
	// server (the failed remote lookups and duplicated EJB work).
	ExtraCPUPerReq float64
	overloaded     string
	idle           string
}

// NewOffloadBug injects the bug: overloaded keeps all the work (with extra
// per-request cost), idle receives (almost) none.
func NewOffloadBug(start int64, overloaded, idle string, extraCPUPerReq float64) *OffloadBug {
	return &OffloadBug{
		baseFault:      baseFault{name: "offloadbug", targets: []string{overloaded, idle}, start: start},
		ExtraCPUPerReq: extraCPUPerReq,
		overloaded:     overloaded,
		idle:           idle,
	}
}

// Apply implements Fault.
func (f *OffloadBug) Apply(t int64, c *Comp) {
	if c.Spec.Name == f.overloaded {
		c.ExtraCPUPerReq += f.ExtraCPUPerReq
	}
	// The idle server's perturbation is indirect: the balancer keeps
	// routing to it, but the overloaded server's misdirected EJB work is
	// modelled as the extra cost above. To surface the paper's "both app
	// servers abnormal" symptom, the idle server sheds its share: requests
	// routed to it bounce to the overloaded server. We model this by
	// making the idle server forward-heavy and cheap, via a service
	// speedup (its real work left with server 1).
	if c.Spec.Name == f.idle {
		c.Slowdown *= 0.25 // anomalously fast/idle: a distinct metric drop
		c.ExtraCPUPerReq -= c.Spec.CPUCostPerReq * 0.8
	}
}

// GrayDisk models a gray failure: a disk that is intermittently slow. The
// fault duty-cycles — during on-phases it steals disk bandwidth and inflates
// service time (I/O waits), during off-phases the component fully recovers —
// so the SLO violation flaps and naive detectors that expect a persistent
// shift miss it.
type GrayDisk struct {
	baseFault
	MBps      float64 // stolen disk bandwidth during on-phases
	Slowdown  float64 // service-time multiplier during on-phases
	PeriodSec int64   // duty cycle length
	OnSec     int64   // slow-phase length within each cycle
}

// NewGrayDisk injects an intermittently slow disk: every periodSec, the
// targets spend onSec with mbps of disk bandwidth stolen and service slowed
// by slowdown.
func NewGrayDisk(start int64, mbps, slowdown float64, periodSec, onSec int64, targets ...string) *GrayDisk {
	if periodSec < 2 {
		periodSec = 2
	}
	if onSec < 1 {
		onSec = 1
	}
	if onSec > periodSec {
		onSec = periodSec
	}
	return &GrayDisk{
		baseFault: baseFault{name: "gray-disk", targets: targets, start: start},
		MBps:      mbps, Slowdown: slowdown, PeriodSec: periodSec, OnSec: onSec,
	}
}

// Apply implements Fault.
func (f *GrayDisk) Apply(t int64, c *Comp) {
	if (t-f.start)%f.PeriodSec >= f.OnSec {
		return
	}
	c.HogDiskRead += 0.6 * f.MBps
	c.HogDiskWrite += 0.4 * f.MBps
	if f.Slowdown > 1 {
		c.Slowdown *= f.Slowdown
	}
}

// RetryStorm models a cascading retry storm: a slowdown at one component
// whose callers retry timed-out requests, amplifying the load on the
// already-slow component and burning CPU (and network chatter) on the retry
// bookkeeping upstream — load amplification travelling along reversed
// dependency edges. The ground truth is the slow root plus its retrying
// callers, all of which genuinely manifest the fault.
type RetryStorm struct {
	baseFault
	RootSlowdown float64 // service-time multiplier at the slow root
	RetryRate    float64 // extra retried requests per second landing on the root
	RetryCPUFrac float64 // upstream per-request CPU inflation (fraction of its own cost)
	RetryNetMBps float64 // upstream retry chatter (inbound MB/s)
	root         string
}

// NewRetryStorm injects a slowdown at root; each upstream caller
// retransmits, adding retryRate req/s onto the root and inflating every
// upstream's per-request CPU cost by retryCPUFrac of its own cost.
func NewRetryStorm(start int64, root string, upstreams []string, rootSlowdown, retryRate, retryCPUFrac, retryNetMBps float64) *RetryStorm {
	targets := append([]string{root}, upstreams...)
	return &RetryStorm{
		baseFault:    baseFault{name: "retry-storm", targets: targets, start: start},
		RootSlowdown: rootSlowdown,
		RetryRate:    retryRate,
		RetryCPUFrac: retryCPUFrac,
		RetryNetMBps: retryNetMBps,
		root:         root,
	}
}

// Apply implements Fault.
func (f *RetryStorm) Apply(t int64, c *Comp) {
	if c.Spec.Name == f.root {
		if f.RootSlowdown > 1 {
			c.Slowdown *= f.RootSlowdown
		}
		// Retries are genuine requests: they arrive like external load and
		// are merged into the queue (subject to capacity) this tick.
		c.arrivals += f.RetryRate
		return
	}
	c.ExtraCPUPerReq += f.RetryCPUFrac * c.Spec.CPUCostPerReq
	c.HogNetIn += f.RetryNetMBps
}

// WorkloadSurge is a false-alarm trap, not a fault: a legitimate traffic
// surge at the entry components. Every component works harder and the SLO
// may be violated, but no component misbehaves — the ground truth is empty,
// and a localizer is scored on *not* blaming anyone (FChain's external-
// factor rule, paper §II-C).
type WorkloadSurge struct {
	baseFault
	ExtraRate float64 // added external arrivals per second, split over targets
	RampSec   int64   // seconds to reach the full surge (0 = instant)
}

var _ GroundTruther = (*WorkloadSurge)(nil)

// NewWorkloadSurge adds extraRate req/s of legitimate traffic at the entry
// components, ramping linearly over rampSec.
func NewWorkloadSurge(start int64, extraRate float64, rampSec int64, entries ...string) *WorkloadSurge {
	return &WorkloadSurge{
		baseFault: baseFault{name: "workload-surge", targets: entries, start: start},
		ExtraRate: extraRate,
		RampSec:   rampSec,
	}
}

// GroundTruth implements GroundTruther: nobody is at fault.
func (f *WorkloadSurge) GroundTruth() []string { return []string{} }

// Apply implements Fault.
func (f *WorkloadSurge) Apply(t int64, c *Comp) {
	frac := 1.0
	if f.RampSec > 0 {
		frac = float64(t-f.start+1) / float64(f.RampSec)
		if frac > 1 {
			frac = 1
		}
	}
	c.arrivals += f.ExtraRate * frac / float64(len(f.targets))
}

// DegradeWaves is a pathological detector-validation fault in the spirit of
// a reject-all handler: every component degrades, in staggered waves, so a
// localization pipeline must (a) detect changepoints everywhere and (b) not
// collapse the diagnosis into the external-factor verdict — the onset spread
// across waves exceeds the external-factor window by construction.
type DegradeWaves struct {
	baseFault
	Slowdown   float64 // service-time multiplier once a component's wave starts
	StaggerSec int64   // delay between consecutive waves
	waveOf     map[string]int64
}

// NewDegradeWaves degrades every component in waves: waves[i] starts at
// start + i*staggerSec with the given slowdown.
func NewDegradeWaves(start int64, slowdown float64, staggerSec int64, waves [][]string) *DegradeWaves {
	var targets []string
	waveOf := make(map[string]int64)
	for i, wave := range waves {
		for _, name := range wave {
			targets = append(targets, name)
			waveOf[name] = int64(i)
		}
	}
	if staggerSec < 1 {
		staggerSec = 1
	}
	return &DegradeWaves{
		baseFault:  baseFault{name: "everything-degrades", targets: targets, start: start},
		Slowdown:   slowdown,
		StaggerSec: staggerSec,
		waveOf:     waveOf,
	}
}

// Apply implements Fault.
func (f *DegradeWaves) Apply(t int64, c *Comp) {
	if t >= f.start+f.waveOf[c.Spec.Name]*f.StaggerSec {
		c.Slowdown *= f.Slowdown
	}
}

// Named wraps a fault with a different label and (optionally) an explicit
// ground truth, so one fault primitive can back several catalog templates
// (e.g. a CPUHog across a host's tenants reported as "noisy-neighbor" with
// all co-hosted components as ground truth).
type Named struct {
	Fault
	Label string
	Truth []string // nil = defer to the wrapped fault
}

var _ GroundTruther = (*Named)(nil)

// Name implements Fault.
func (n *Named) Name() string { return n.Label }

// GroundTruth implements GroundTruther, deferring to the wrapped fault when
// no explicit truth is set.
func (n *Named) GroundTruth() []string {
	if n.Truth != nil {
		return append([]string(nil), n.Truth...)
	}
	if gt, ok := n.Fault.(GroundTruther); ok {
		return gt.GroundTruth()
	}
	return n.Fault.Targets()
}
