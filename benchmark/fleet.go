package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fchain"
	"fchain/internal/cluster"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// fleet is one in-process cluster over loopback TCP: a master, optional
// aggregators, and sharded slaves, each daemon dialing through a wireTap.
type fleet struct {
	spec   workloadSpec
	cfg    core.Config
	in     *inputs
	master *cluster.Master
	aggs   []*cluster.Aggregator
	slaves map[string]*cluster.Slave
	via    map[string]string   // slave → aggregator it answers through
	taps   map[string]*wireTap // daemon (slave or aggregator) → its dialed conns

	// regs and rings are set on a traced fleet only: a registry and a trace
	// ring per daemon, read back through the public obs types.
	regs  map[string]*obs.Registry
	rings map[string]*obs.TraceRing

	// plan is the feed plan, refreshed from Master.Assignments after every
	// Rebalance: every component with the slave that ingests it, ordered by
	// slave then component. owned counts a slave's components.
	plan  []feedTarget
	owned map[string]int
	// generation numbers replacement slaves so names never repeat.
	generation int

	placement  time.Duration // the first Rebalance
	lastIngest time.Time     // when the latest feed call returned
	ingestErr  atomic.Int64
}

type feedTarget struct {
	slave *cluster.Slave
	comp  string
	cols  *[metric.NumKinds]column
}

// waitUntil polls cond until it holds or the timeout passes.
func waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// config is the program configuration the workload runs: the generated-mesh
// monitoring profile with the workload's kernel choice.
func (spec workloadSpec) config() core.Config {
	cfg := fchain.MeshConfig()
	cfg.Streaming = spec.Streaming
	if spec.NoClamp {
		cfg.ClampSigma = -1
	}
	return cfg
}

// bringUp starts the workload's cluster, registers every component and
// places them with the first Rebalance. With traced set every daemon gets an
// obs.Sink; otherwise none is attached.
func bringUp(spec workloadSpec, in *inputs, deps *depgraph.Graph, traced bool) (*fleet, error) {
	cfg := spec.config()
	f := &fleet{
		spec: spec, cfg: cfg, in: in,
		slaves: make(map[string]*cluster.Slave),
		via:    make(map[string]string),
		taps:   make(map[string]*wireTap),
	}
	if traced {
		f.regs = make(map[string]*obs.Registry)
		f.rings = make(map[string]*obs.TraceRing)
	}
	mopts := []cluster.MasterOption{cluster.WithSharding(0), cluster.WithAutoRebalance(false)}
	if spec.Standby {
		mopts = append(mopts, cluster.WithStandby(true))
	}
	if traced {
		mopts = append(mopts, cluster.WithMasterObs(f.sink("master")))
	}
	f.master = cluster.NewMaster(cfg, deps, mopts...)
	if err := f.master.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < spec.Aggregators; i++ {
		name := aggName(i)
		tap := &wireTap{}
		f.taps[name] = tap
		aopts := []cluster.AggregatorOption{cluster.WithAggregatorDialer(tap.dial)}
		if traced {
			aopts = append(aopts, cluster.WithAggregatorObs(f.sink(name)))
		}
		agg := cluster.NewAggregator(name, aopts...)
		f.aggs = append(f.aggs, agg)
		if err := agg.Start("127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
		if err := agg.Connect(f.master.Addr()); err != nil {
			f.close()
			return nil, err
		}
	}
	for i := 0; i < spec.Slaves; i++ {
		if err := f.addSlave(fmt.Sprintf("slave-%d", i), i); err != nil {
			f.close()
			return nil, err
		}
	}
	f.master.RegisterComponents(in.comps...)
	start := time.Now()
	moved, err := f.master.Rebalance()
	f.placement = time.Since(start)
	if err != nil || moved != len(in.comps) {
		f.close()
		return nil, fmt.Errorf("initial placement moved %d of %d components: %v", moved, len(in.comps), err)
	}
	f.refreshOwnership()
	if spec.Aggregators > 0 {
		if err := f.waitTree(); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func aggName(i int) string { return fmt.Sprintf("agg-%d", i) }

// sink returns the traced fleet's sink for one daemon.
func (f *fleet) sink(daemon string) *obs.Sink {
	f.regs[daemon] = obs.NewRegistry()
	f.rings[daemon] = obs.NewTraceRing(2)
	return &obs.Sink{Metrics: f.regs[daemon], Traces: f.rings[daemon]}
}

// addSlave starts one sharded slave, connects it to the master (and to its
// aggregator, chosen round-robin by index) and waits for the registrations.
func (f *fleet) addSlave(name string, index int) error {
	tap := &wireTap{}
	f.taps[name] = tap
	sopts := []cluster.SlaveOption{cluster.WithReconnect(false), cluster.WithDialer(tap.dial)}
	var agg *cluster.Aggregator
	if len(f.aggs) > 0 {
		agg = f.aggs[index%len(f.aggs)]
		f.via[name] = aggName(index % len(f.aggs))
		sopts = append(sopts, cluster.WithVia(f.via[name]))
	}
	if f.spec.Standby {
		sopts = append(sopts, cluster.WithReplication(f.spec.ReplInterval))
	}
	if f.rings != nil {
		sopts = append(sopts, cluster.WithSlaveObs(f.sink(name)))
	}
	sl := cluster.NewSlave(name, nil, f.cfg, sopts...)
	f.slaves[name] = sl
	if err := sl.Connect(f.master.Addr()); err != nil {
		return err
	}
	if agg != nil {
		if err := sl.Connect(agg.Addr()); err != nil {
			return err
		}
		if err := waitUntil(5*time.Second, name+" to register with its aggregator", func() bool {
			return slices.Contains(agg.Slaves(), name)
		}); err != nil {
			return err
		}
	}
	return waitUntil(5*time.Second, name+" to register with the master", func() bool {
		return slices.Contains(f.master.Slaves(), name)
	})
}

// waitTree issues throw-away Localize calls on the still-empty cluster until
// the master routes every slave through its aggregator: aggregators register
// asynchronously and a slave whose aggregator is not yet known is asked
// directly.
func (f *fleet) waitTree() error {
	return waitUntil(5*time.Second, "the master to route every slave via its aggregator", func() bool {
		res, err := f.master.Localize(context.Background(), 0)
		if err != nil || res.Trace == nil {
			return false
		}
		n := 0
		for i := range res.Trace.Spans {
			sp := &res.Trace.Spans[i]
			if _, ok := sp.Attr("via"); ok {
				n++
			}
		}
		return n == len(f.slaves)
	})
}

// refreshOwnership rebuilds the feed plan from the master's placement.
func (f *fleet) refreshOwnership() {
	assigned := f.master.Assignments()
	f.plan = f.plan[:0]
	f.owned = make(map[string]int, len(assigned))
	for _, name := range f.slaveNames() {
		comps := append([]string(nil), assigned[name]...)
		sort.Strings(comps)
		f.owned[name] = len(comps)
		for _, comp := range comps {
			f.plan = append(f.plan, feedTarget{slave: f.slaves[name], comp: comp, cols: f.in.cols[comp]})
		}
	}
}

// slaveNames returns the live slaves, sorted.
func (f *fleet) slaveNames() []string {
	names := make([]string, 0, len(f.slaves))
	for name := range f.slaves {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// feed ingests virtual seconds [from, to) of every component through
// Slave.Ingest, time-major, on the given number of feeder goroutines, and
// returns when every feeder has finished (closed loop). Each feeder gets an
// equal, contiguous share of the plan: placement is hash-based and may give
// one slave a quarter more components than another, and the feed should
// measure the ingest path, not that imbalance. The second result is each
// feeder's busy time, for the traced pass.
//
// The measured feeds use one feeder. On the shared 2-vCPU boxes this was
// sized on, whether two goroutines really run side by side changes from
// minute to minute with the host's load, and a two-feeder rate moved by a
// factor of two between runs of the same code; one feeder's rate is the
// per-sample cost of the ingest path and repeats within a few percent.
func (f *fleet) feed(from, to int64, feeders int) (elapsed time.Duration, feederBusy []time.Duration) {
	if feeders > len(f.plan) {
		feeders = len(f.plan)
	}
	feederBusy = make([]time.Duration, feeders)
	start := time.Now()
	var wg sync.WaitGroup
	for j := 0; j < feeders; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			t0 := time.Now()
			share := f.plan[j*len(f.plan)/feeders : (j+1)*len(f.plan)/feeders]
			var errs int64
			for t := from; t < to; t++ {
				for _, tg := range share {
					for ki, k := range metric.Kinds {
						if err := tg.slave.Ingest(tg.comp, t, k, f.in.value(tg.cols, ki, t)); err != nil {
							errs++
						}
					}
				}
			}
			f.ingestErr.Add(errs)
			feederBusy[j] = time.Since(t0)
		}(j)
	}
	wg.Wait()
	f.lastIngest = time.Now()
	return f.lastIngest.Sub(start), feederBusy
}

// samplesPerSecond is how many Ingest calls one virtual second costs.
func (f *fleet) samplesPerSecond() int64 {
	return int64(len(f.in.comps)) * metric.NumKinds
}

// wireBytes sums the traffic every daemon's dialed connections carried.
func (f *fleet) wireBytes() int64 {
	var n int64
	for _, tap := range f.taps {
		n += tap.bytes()
	}
	return n
}

// waitReplicated blocks until every sample ingested so far is on its
// component's standby. Seen from outside, that is: every standby has
// acknowledged every frame the master relayed, and no state-carrying frame
// has crossed any slave's sockets — a primary shipping, the master relaying
// to a standby — for two and a half replication ticks after the last Ingest.
// A tick that starts after the last Ingest ships whatever is pending, and a
// busy slave or relay queue keeps frames moving, so a quiet window that long
// contains a tick that found nothing left to send.
//
// Quiet but not acknowledged is a stall, and it can happen: the master
// matches acknowledgements to shipments by per-component sequence numbers
// that restart when a component changes owner, so a frame from the previous
// owner still queued at the master when a Rebalance resets the books leaves
// "sent" ahead of anything the new owner will send while it has nothing new
// to ship. In production samples never stop and the new sequence overtakes
// within seconds; the benchmark does the same by calling nudge (when given),
// which must feed a fresh second to every component.
func (f *fleet) waitReplicated(nudge func()) error {
	window := 5 * f.spec.ReplInterval / 2
	deadline := time.Now().Add(60 * time.Second)
	nudges := 0
	for {
		last := f.lastIngest
		for name := range f.slaves {
			if t := f.taps[name].lastPayload(); t.After(last) {
				last = t
			}
		}
		behind := ""
		for _, comp := range f.in.comps {
			if !f.master.StandbyCaughtUp(comp) {
				behind = comp
				break
			}
		}
		idle := time.Since(last)
		switch {
		case idle >= window && behind == "":
			return nil
		case nudge != nil && idle >= 2*window && nudges < 200:
			nudges++
			nudge()
		case time.Now().After(deadline):
			owner, _ := f.master.Owner(behind)
			standby, _ := f.master.Standby(behind)
			return fmt.Errorf("standbys did not catch up within 60s (%d nudges): %s (owner %s, standby %q) is still behind",
				nudges, behind, owner, standby)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// kill closes one slave abruptly and waits for the master to evict it.
func (f *fleet) kill(name string) error {
	sl := f.slaves[name]
	delete(f.slaves, name)
	if err := sl.Close(); err != nil {
		return err
	}
	return waitUntil(5*time.Second, "eviction of "+name, func() bool {
		return !slices.Contains(f.master.Slaves(), name)
	})
}

// close stops every daemon and waits for their goroutines.
func (f *fleet) close() {
	for _, sl := range f.slaves {
		_ = sl.Close()
	}
	for _, agg := range f.aggs {
		_ = agg.Close()
	}
	if f.master != nil {
		_ = f.master.Close()
	}
}
