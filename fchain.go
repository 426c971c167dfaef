// Package fchain is a black-box online fault localization library for
// distributed cloud applications, reproducing "FChain: Toward Black-box
// Online Fault Localization for Cloud Systems" (Nguyen, Shen, Tan, Gu —
// ICDCS 2013).
//
// FChain pinpoints the faulty components of a distributed application
// immediately after a performance anomaly (SLO violation) is detected,
// using nothing but per-component system-level metrics (CPU, memory,
// network in/out, disk read/write) sampled once per second. It needs no
// application instrumentation, no topology knowledge, and no training data
// for anomalies, so it diagnoses previously unseen faults.
//
// # Pipeline
//
// Feed every metric sample into a Localizer as it is collected; the
// per-metric online Markov models continuously learn each metric's normal
// fluctuation. When your anomaly detector reports an SLO violation at time
// tv, call Localize: each component's look-back window is scanned for
// abnormal change points (CUSUM+bootstrap change points, filtered by a
// burstiness-adaptive predictability test), the abnormal components are
// sorted into a propagation chain by manifestation onset, and the chain's
// source — plus concurrent faults and dependency-isolated independents —
// is pinpointed.
//
//	loc := fchain.NewLocalizer(fchain.DefaultConfig(), []string{"web", "app", "db"})
//	for sample := range samples {
//	    loc.Observe(sample.Component, sample.Time, sample.Kind, sample.Value)
//	}
//	// ... SLO violation detected at tv ...
//	diag := loc.Localize(tv, deps) // deps from DiscoverDependencies, may be nil
//	fmt.Println(diag.CulpritNames())
//
// Optionally run online pinpointing validation (Validate/ApplyValidation)
// against a system that supports per-component resource scaling, and use
// the cluster types (NewMaster/NewSlave) for the distributed master/slave
// deployment of the paper's Fig. 1.
//
// The sibling package fchain/scenario provides the paper's three simulated
// benchmark systems (RUBiS, IBM System S, Hadoop) and regenerates every
// table and figure of its evaluation.
package fchain

import (
	"time"

	"fchain/internal/cluster"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/faultlib"
	"fchain/internal/ingest"
	"fchain/internal/metric"
	"fchain/internal/obs"
	"fchain/internal/tenant"
)

// Kind identifies one of the six monitored system metrics.
type Kind = metric.Kind

// The six system-level metrics FChain monitors (paper §III-A).
const (
	CPU       = metric.CPU
	Memory    = metric.Memory
	NetIn     = metric.NetIn
	NetOut    = metric.NetOut
	DiskRead  = metric.DiskRead
	DiskWrite = metric.DiskWrite
)

// ParseKind returns the Kind named by s ("cpu", "memory", "net_in",
// "net_out", "disk_read", "disk_write").
func ParseKind(s string) (Kind, error) { return metric.ParseKind(s) }

// Kinds lists every monitored metric in canonical order.
func Kinds() []Kind {
	out := make([]Kind, len(metric.Kinds))
	copy(out, metric.Kinds)
	return out
}

// Config holds FChain's tuning knobs; the zero value takes the paper's
// defaults (W=100s look-back, 2s concurrency threshold, Q=20s burst
// window, top 90% frequencies, 90th-percentile burst magnitude).
type Config = core.Config

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// MeshConfig returns the default parameters with the generated-mesh
// monitoring profile applied: a wider external-factor onset spread (deep
// topologies stretch how long a mesh-wide shift takes to manifest
// everywhere) and the relative-magnitude selection floor (hundreds of
// monitored components compound the per-metric false-selection rate on
// operationally meaningless shifts). Use it when monitoring scenario-factory
// meshes; the paper applications keep DefaultConfig.
func MeshConfig() Config {
	return faultlib.MeshProfile(core.DefaultConfig())
}

// Diagnosis is the output of fault localization: the pinpointed culprits,
// the abnormal-change propagation chain, and the external-factor verdict.
type Diagnosis = core.Diagnosis

// Culprit is one pinpointed faulty component.
type Culprit = core.Culprit

// ComponentReport is one component's abnormal change point report.
type ComponentReport = core.ComponentReport

// AbnormalChange describes one selected abnormal change point.
type AbnormalChange = core.AbnormalChange

// DataQuality summarizes how clean a component's metric streams were: a
// score in [0, 1] plus the sanitizer counters behind it. The zero value
// means "no quality information" and scores full confidence.
type DataQuality = core.DataQuality

// IngestStats are the per-stream sanitizer counters (accepted, dropped,
// clamped, reordered, interpolated, long gaps) behind a DataQuality.
type IngestStats = ingest.Stats

// PoolStats reports how the analysis engine spent its time on one call:
// worker pool shape plus per-phase latency histograms.
type PoolStats = core.PoolStats

// LatencyHist is the log2-bucketed nanosecond histogram inside PoolStats.
type LatencyHist = core.LatencyHist

// Sentinel errors returned by the strict Observe path. Use errors.Is to
// test for them; both wrap details about the offending sample.
var (
	// ErrBadSample marks a NaN or infinite metric value.
	ErrBadSample = core.ErrBadSample
	// ErrTimeRegression marks a sample whose timestamp does not strictly
	// advance its metric's clock.
	ErrTimeRegression = core.ErrTimeRegression
)

// Localizer is the whole FChain pipeline behind two calls: Observe for
// every metric sample, Localize when a performance anomaly is detected.
// Monitor state is sharded per (component, metric), so concurrent Observe
// calls and a concurrent Localize are safe; analysis itself fans
// out over a bounded worker pool sized by Config.Parallelism.
type Localizer struct {
	inner *core.Localizer
}

// NewLocalizer creates a localizer monitoring the given components.
func NewLocalizer(cfg Config, components []string) *Localizer {
	return &Localizer{inner: core.NewLocalizer(cfg, components)}
}

// Observe feeds one sample: component, sample time (seconds), metric kind,
// and value. This is the strict path: NaN/Inf values fail with ErrBadSample
// and timestamps must strictly advance per metric (ErrTimeRegression
// otherwise). A slave (NewSlave) ingests feeds that cannot make those
// guarantees through its sanitizer.
func (l *Localizer) Observe(component string, t int64, k Kind, v float64) error {
	return l.inner.Observe(component, t, k, v)
}

// Localize runs the full pipeline at SLO-violation time tv. deps is the
// inter-component dependency graph from offline discovery and may be nil
// or empty (FChain then relies on propagation order alone, as it must for
// continuous stream-processing systems).
func (l *Localizer) Localize(tv int64, deps *DependencyGraph) Diagnosis {
	return l.inner.Localize(tv, deps)
}

// Trace is the span tree recorded for one traced localization: per-phase
// spans (analyze, diagnose) over per-component spans over per-metric
// selection spans, each carrying the evidence behind the verdict (candidate
// change points, filter decisions, rollback onsets). Normalize strips
// wall-clock timings for golden comparison.
type Trace = obs.Trace

// Span is one timed operation inside a Trace.
type Span = obs.Span

// LocalizeTraced is Localize also returning the analysis engine's timing
// counters (selection task latencies plus per-pass diagnosis latency) and
// recording the full evidence trace: why each (component, metric) pair was
// or was not selected, and how the propagation chain was assembled. The
// span tree is deterministic — it is bit-identical (after Normalize) at any
// Config.Parallelism.
func (l *Localizer) LocalizeTraced(tv int64, deps *DependencyGraph) (Diagnosis, PoolStats, *Trace) {
	return l.inner.LocalizeTraced(tv, deps)
}

// ObservabilitySink bundles the observability outputs a daemon threads
// through its layers: a leveled logger, a metrics registry, a ring of
// recent traces, and a JSONL event journal. Any field may be nil; nil
// components discard their input at negligible cost.
type ObservabilitySink = obs.Sink

// DependencyGraph is a directed inter-component dependency graph.
type DependencyGraph = depgraph.Graph

// NewDependencyGraph returns an empty graph; add edges with AddEdge.
func NewDependencyGraph() *DependencyGraph { return depgraph.NewGraph() }

// Packet is one passively captured network packet, the input to black-box
// dependency discovery.
type Packet = depgraph.Packet

// DiscoverConfig controls black-box dependency discovery.
type DiscoverConfig = depgraph.DiscoverConfig

// DiscoverDependencies infers the inter-component dependency graph from a
// passive packet capture (Sherlock-style). Continuous streaming traffic
// yields an empty graph — pass it to Localize anyway; FChain falls back to
// propagation-order-only localization.
func DiscoverDependencies(packets []Packet, cfg DiscoverConfig) *DependencyGraph {
	return depgraph.Discover(packets, cfg)
}

// LoadDependencies reads a dependency graph previously stored with its Save
// method. The paper runs discovery offline and caches the result in a file,
// since application dependencies rarely change at runtime (§II-C).
func LoadDependencies(path string) (*DependencyGraph, error) {
	return depgraph.Load(path)
}

// Adjuster is the resource-scaling surface that online pinpointing
// validation drives: scale a culprit's implicated resource, run, and watch
// the SLO.
type Adjuster = core.Adjuster

// ValidationResult records the outcome of validating one culprit.
type ValidationResult = core.ValidationResult

// Validate runs online pinpointing validation on every culprit: mk must
// return a fresh trial system (in simulation, a clone; in production, the
// live system with later rollback).
func Validate(mk func() (Adjuster, error), diag Diagnosis) ([]ValidationResult, error) {
	return core.Validate(mk, diag)
}

// ApplyValidation retains only confirmed culprits (FChain+VAL, Fig. 11).
func ApplyValidation(diag Diagnosis, results []ValidationResult) Diagnosis {
	return core.ApplyValidation(diag, results)
}

// Master is the distributed master daemon (paper Fig. 1): it accepts slave
// registrations and runs the integrated diagnosis over their reports. It is
// built for degraded conditions: heartbeat probing evicts dead slaves, a
// per-slave circuit breaker skips repeat offenders, and Localize asks each
// slave once with its whole deadline before reporting coverage.
type Master = cluster.Master

// MasterOption configures a Master.
type MasterOption = cluster.MasterOption

// WithHeartbeat enables periodic slave liveness probing: a slave missing
// three consecutive pongs is evicted.
func WithHeartbeat(interval time.Duration) MasterOption { return cluster.WithHeartbeat(interval) }

// WithLocalizeTimeout sets the overall Localize deadline used when the
// caller's context has none (default 30s).
func WithLocalizeTimeout(d time.Duration) MasterOption { return cluster.WithLocalizeTimeout(d) }

// WithQuorum sets the slave answer quorum as a fraction in (0, 1]: Localize
// diagnoses as soon as that fraction of slaves answered (stragglers are
// charged to coverage, not latency) and refuses with ErrQuorumNotMet when
// fewer answer before the deadline. 0 (the default) disables both: the
// master waits for every slave within the deadline and diagnoses
// best-effort.
func WithQuorum(frac float64) MasterOption { return cluster.WithQuorum(frac) }

// WithAdmission bounds concurrent Localize calls on the master: at most
// limit run at once, and calls past the limit fail fast with ErrOverloaded.
func WithAdmission(limit int) MasterOption { return cluster.WithAdmission(limit) }

// Sentinel errors surfaced by the overload-resilient control plane. Use
// errors.Is to test for them.
var (
	// ErrOverloaded: the request was shed by admission control before any
	// analysis ran.
	ErrOverloaded = cluster.ErrOverloaded
	// ErrQuorumNotMet: fewer slaves answered before the deadline than the
	// configured quorum requires, so no diagnosis was produced.
	ErrQuorumNotMet = cluster.ErrQuorumNotMet
)

// OverloadedError is the concrete error behind ErrOverloaded sheds: it
// carries the RetryAfter backoff hint (a fixed 250 ms, capped at the
// master's localize timeout), reconstructed on the client side of the wire.
// Match with errors.Is(err, ErrOverloaded) and extract with errors.As.
type OverloadedError = cluster.OverloadedError

// WithSharding puts the master in charge of component placement: components
// registered with RegisterComponents are assigned to slaves by a
// consistent-hash ring with the given number of virtual nodes per member
// (<= 0 takes the default 128), ownership is enforced at Observe and
// Analyze, and membership changes trigger rebalancing that moves each
// component's model state with it.
func WithSharding(vnodes int) MasterOption { return cluster.WithSharding(vnodes) }

// WithStandby gives every placed component a warm standby owner (sharded
// mode only): the ring assigns a second, distinct slave per component,
// primaries stream state deltas to it (enable WithReplication on the
// slaves), and when a primary dies rebalancing promotes the caught-up
// standby in place — no checkpoint read, no handoff round-trip.
func WithStandby(on bool) MasterOption { return cluster.WithStandby(on) }

// Aggregator is the optional middle tier of the master/slave topology: it
// registers with the master as the upstream of a slave subtree, fans the
// master's analyze requests out to its subtree, and merges the answers into
// one reply. A dead aggregator costs nothing but the tree: the master falls
// back to the slaves' direct connections mid-localization.
type Aggregator = cluster.Aggregator

// AggregatorOption configures an Aggregator.
type AggregatorOption = cluster.AggregatorOption

// WithAggregatorBackoff overrides the aggregator's master-reconnect backoff
// bounds.
func WithAggregatorBackoff(initial, max time.Duration) AggregatorOption {
	return cluster.WithAggregatorBackoff(initial, max)
}

// WithAggregatorObs attaches an observability sink to the aggregator.
func WithAggregatorObs(sink *ObservabilitySink) AggregatorOption {
	return cluster.WithAggregatorObs(sink)
}

// NewAggregator creates an aggregator; call Start to listen for subtree
// slaves and Connect to register with the master.
func NewAggregator(name string, opts ...AggregatorOption) *Aggregator {
	return cluster.NewAggregator(name, opts...)
}

// WithMasterObs attaches an observability sink to the master: every
// Localize records a trace into the ring, updates the metrics registry,
// and journals its verdict; slave lifecycle events are logged.
func WithMasterObs(sink *ObservabilitySink) MasterOption {
	return cluster.WithMasterObs(sink)
}

// NewMaster creates a master with the given configuration and dependency
// graph; call Start to listen.
func NewMaster(cfg Config, deps *DependencyGraph, opts ...MasterOption) *Master {
	return cluster.NewMaster(cfg, deps, opts...)
}

// LocalizeResult is a distributed diagnosis plus coverage metadata: how many
// slaves answered, how many components the diagnosis saw, and whether the
// view was Degraded (partial).
type LocalizeResult = core.LocalizeResult

// HealthState classifies a slave's liveness ("healthy", "degraded", "dead").
type HealthState = cluster.HealthState

// Slave liveness states reported by Master.Health.
const (
	Healthy  = cluster.Healthy
	Degraded = cluster.Degraded
	Dead     = cluster.Dead
)

// SlaveHealth is one slave's liveness snapshot from Master.Health.
type SlaveHealth = cluster.SlaveHealth

// Slave is the per-host slave daemon: it models normal fluctuation for its
// components and answers the master's analyze requests. A dropped master
// connection is re-dialed with capped exponential backoff while local
// collection continues, so an outage costs only the time it lasted.
type Slave = cluster.Slave

// SlaveOption configures a Slave.
type SlaveOption = cluster.SlaveOption

// WithBackoff overrides the slave's reconnect backoff bounds (first retry
// ~initial, doubling to max, jittered ±50%).
func WithBackoff(initial, max time.Duration) SlaveOption { return cluster.WithBackoff(initial, max) }

// WithReplication enables warm-standby replication: every interval the
// slave ships each owned component's state delta (new samples since the
// last acked ship, or a full snapshot after a gap) upstream for relay to
// the component's standby (<= 0 disables; pair with the master's
// WithStandby).
func WithReplication(interval time.Duration) SlaveOption {
	return cluster.WithReplication(interval)
}

// WithCheckpointDir enables crash-safe persistence: the slave checkpoints
// every component's models and ring tails to dir (every 30s and on Close)
// and restores whatever usable checkpoints the directory holds when it is
// constructed, so a restarted slave resumes with warm models.
func WithCheckpointDir(dir string) SlaveOption { return cluster.WithCheckpointDir(dir) }

// WithVia names the aggregator this slave reports through: the slave
// registers the name with the master (which then routes analyze requests for
// it via that aggregator) and should additionally Connect to the
// aggregator's own address.
func WithVia(aggregator string) SlaveOption { return cluster.WithVia(aggregator) }

// WithSlaveAdmission bounds concurrent analyze work on the slave: at most
// limit requests analyze at once, and requests past the limit are answered
// with a structured "overloaded" error frame so the master fails fast.
func WithSlaveAdmission(limit int) SlaveOption { return cluster.WithSlaveAdmission(limit) }

// WithSlaveObs attaches an observability sink to the slave: ingest and
// analyze counters, per-request selection latency histograms, analysis
// traces into the ring, and connection-state logging.
func WithSlaveObs(sink *ObservabilitySink) SlaveOption {
	return cluster.WithSlaveObs(sink)
}

// NewSlave creates a slave monitoring the given components; call Connect
// to register with a master.
func NewSlave(name string, components []string, cfg Config, opts ...SlaveOption) *Slave {
	return cluster.NewSlave(name, components, cfg, opts...)
}

// DiagnosisRecord is one remembered localization in Master.History,
// tenant/app-tagged when it was produced by the service-mode intake.
type DiagnosisRecord = cluster.DiagnosisRecord

// Service is the durable multi-tenant violation intake over a Master: it
// accepts a stream of SLO-violation events tagged (tenant, app, tv) — over
// the wire via violate frames or in process via Submit — applies per-tenant
// namespaces and token-bucket quotas, localizes each violation at its own
// tv (only identical concurrent violations share one localization), and
// write-ahead journals every accepted violation so Replay can recover after
// a crash: served verdicts rebuild the history and accepted-but-unserved
// violations are re-run.
type Service = cluster.Service

// ServiceConfig tunes a Service (tenant namespace and quotas); zero values
// take the documented defaults.
type ServiceConfig = cluster.ServiceConfig

// Verdict is one served localization verdict for the violation's own tv;
// its Diagnosis field is the canonical JSON kept raw, exactly as journaled.
type Verdict = cluster.Verdict

// ReplayStats summarizes one Service.Replay pass over the journal.
type ReplayStats = cluster.ReplayStats

// NewService builds the service layer over master and attaches it, routing
// violate frames from the master's listener into it.
func NewService(m *Master, cfg ServiceConfig) *Service { return cluster.NewService(m, cfg) }

// ServiceClient is the wire client for the service-mode intake: dial the
// master once, then stream violations with Violate (safe concurrently).
type ServiceClient = cluster.ServiceClient

// DialService connects a violation client to a master running a Service.
func DialService(addr string) (*ServiceClient, error) { return cluster.DialService(addr) }

// Sentinel errors surfaced by the service-mode intake. Use errors.Is.
var (
	// ErrUnknownTenant: the violation named a tenant outside the service's
	// namespace (or no tenant at all).
	ErrUnknownTenant = tenant.ErrUnknown
	// ErrTenantQuota: the tenant's token-bucket violation quota is spent;
	// the violation was shed without consuming any localization capacity.
	ErrTenantQuota = tenant.ErrQuota
	// ErrServiceDraining: the service is shutting down and no longer admits
	// violations.
	ErrServiceDraining = cluster.ErrDraining
)
