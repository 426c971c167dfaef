package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/obs"
)

// Master is the FChain master daemon: it accepts slave registrations and,
// when a performance anomaly is detected, fans an analyze request out to
// every slave and runs the integrated diagnosis over their reports.
//
// The master is built for the degraded conditions it diagnoses: it probes
// registered slaves with periodic heartbeats and evicts dead connections, a
// per-slave circuit breaker stops analyze fan-out from burning its deadline
// on slaves that keep failing, duplicate registrations replace (and close)
// the stale connection, and Localize asks each slave once with its whole
// deadline before reporting how much of the application its diagnosis saw.
type Master struct {
	cfg  core.Config
	deps *depgraph.Graph
	obs  *obs.Sink

	ln net.Listener

	hbInterval time.Duration
	localizeTO time.Duration
	// The per-slave circuit breaker: after brThreshold consecutive analyze
	// failures the slave is skipped until brCooldown elapses (threshold
	// <= 0 disables it). Fixed at 3 failures / 10 s; tests set the fields.
	brThreshold int
	brCooldown  time.Duration

	quorum float64
	admit  *gate

	// Sharded mode (shard.go): vnodes > 0 places every known component on a
	// consistent-hash ring over the registered slaves, and membership
	// changes trigger incremental rebalancing that moves state with them.
	// handoffTimeout bounds each wait of a rebalance: an assignment ack, a
	// relayed replication frame's ack, and how long a batch of live moves
	// may go without one more component landing on its recipient (5 s).
	shardVnodes    int
	handoffTimeout time.Duration
	autoRebalance  bool

	rebalanceMu  sync.Mutex    // serializes rebalance passes
	rebalanceReq chan struct{} // buffered(1) trigger for the auto-rebalance loop
	handoffHook  atomic.Pointer[func(comp, from, to string)]

	// The replication channel is the one way state moves between slaves: an
	// owner ships a component's state deltas upstream and the master relays
	// each to the component's target — its standby (standbyOn gives every
	// component one next to its primary on the ring) or, while a rebalance
	// moves it off a live donor, the move's recipient (moveTo). replSent and
	// replAcked are the per-component sequence numbers received from the
	// current owner and acked by the target; a component is warm-promotable
	// only while the two match. replTickAt records each slave's last clean
	// replication tick. replAck is poked on every target ack so a rebalance
	// can wait for moves to land.
	// replMu may be taken under mu, never the reverse.
	standbyOn  bool
	replMu     sync.Mutex
	standbyOf  map[string]string
	moveTo     map[string]string
	replSent   map[string]uint64
	replAcked  map[string]uint64
	replTickAt map[string]time.Time
	replAck    chan struct{} // buffered(1)

	mu      sync.Mutex
	slaves  map[string]*slaveConn
	aggs    map[string]*slaveConn // registered aggregators by name
	known   map[string]bool       // every component ever registered
	owner   map[string]string     // sharded mode: component -> owning slave
	evicted map[string]bool       // slaves lost since their last registration
	closed  bool
	history []DiagnosisRecord
	svc     *Service // service-mode intake; nil until a Service attaches
	stop    chan struct{}

	wg sync.WaitGroup
}

// MasterOption configures a Master.
type MasterOption func(*Master)

// WithHeartbeat enables periodic liveness probing: every interval the master
// pings each registered slave; a slave missing heartbeatMisses consecutive
// pongs is evicted (its connection closed, pending requests failed).
// interval <= 0 disables probing.
func WithHeartbeat(interval time.Duration) MasterOption {
	return func(m *Master) { m.hbInterval = interval }
}

// heartbeatMisses is how many consecutive missed pongs evict a slave, so a
// single late pong never does.
const heartbeatMisses = 3

// WithLocalizeTimeout sets the overall Localize deadline applied when the
// caller's context has none (default 30s).
func WithLocalizeTimeout(d time.Duration) MasterOption {
	return func(m *Master) {
		if d > 0 {
			m.localizeTO = d
		}
	}
}

// WithQuorum sets the slave answer quorum as a fraction in (0, 1]: Localize
// diagnoses once ceil(frac * slaves) slaves have answered plus a short
// straggler grace (min(remaining/4, quorumGraceCap); see gather),
// attributing whatever is still missing in Coverage/Degraded, and refuses
// with ErrQuorumNotMet when fewer answer before the deadline. frac <= 0
// (the default) disables both behaviors: Localize waits for every slave
// within its deadline and diagnoses best-effort over whatever arrived.
func WithQuorum(frac float64) MasterOption {
	return func(m *Master) {
		if frac > 1 {
			frac = 1
		}
		m.quorum = frac
	}
}

// WithAdmission bounds concurrent Localize calls: at most limit run at
// once, and a call past the limit returns ErrOverloaded immediately with
// Overloaded set on the result. limit <= 0 (the default) admits everything.
func WithAdmission(limit int) MasterOption {
	return func(m *Master) { m.admit = newGate(limit) }
}

// WithMasterObs attaches an observability sink: every Localize records a
// pipeline trace (attached to the result and retained in the sink's trace
// ring), counters and latency histograms land in the sink's registry, events
// in its journal, and lifecycle transitions in its logger. All sink
// components are optional; a nil sink (the default) disables everything.
func WithMasterObs(sink *obs.Sink) MasterOption {
	return func(m *Master) { m.obs = sink }
}

// WithSharding enables sharded placement: every known component is assigned
// to exactly one slave by a consistent-hash ring with vnodes virtual nodes
// per member (vnodes <= 0 selects DefaultVnodes), membership changes trigger
// incremental rebalancing that carries model state along (see shard.go), and
// Localize counts only each component's owner's report.
func WithSharding(vnodes int) MasterOption {
	return func(m *Master) {
		if vnodes <= 0 {
			vnodes = DefaultVnodes
		}
		m.shardVnodes = vnodes
	}
}

// WithStandby gives every placed component a warm standby owner (sharded
// mode only): rebalancing assigns each component a second, distinct slave on
// the ring, slaves replicate state deltas to it through the master (see
// WithReplication on the slave), and when the primary dies or is evicted the
// rebalance promotes the standby's shadow monitor in place — no checkpoint
// read, no state transfer — falling back to the cold-start path only
// when the standby is gone, behind on acks, or past the lag bound.
func WithStandby(on bool) MasterOption {
	return func(m *Master) { m.standbyOn = on }
}

// WithAutoRebalance controls whether membership changes trigger rebalancing
// automatically (the default). Disabled, placement changes only when the
// caller invokes Rebalance — tests use this to make move windows
// deterministic.
func WithAutoRebalance(on bool) MasterOption {
	return func(m *Master) { m.autoRebalance = on }
}

// NewMaster creates a master with the given FChain configuration and
// (possibly empty) dependency graph from offline discovery.
func NewMaster(cfg core.Config, deps *depgraph.Graph, opts ...MasterOption) *Master {
	m := &Master{
		cfg:         cfg,
		deps:        deps,
		localizeTO:  30 * time.Second,
		brThreshold: 3,
		brCooldown:  10 * time.Second,

		handoffTimeout: 5 * time.Second,
		autoRebalance:  true,
		rebalanceReq:   make(chan struct{}, 1),

		slaves:  make(map[string]*slaveConn),
		aggs:    make(map[string]*slaveConn),
		evicted: make(map[string]bool),
		known:   make(map[string]bool),
		owner:   make(map[string]string),
		stop:    make(chan struct{}),

		standbyOf:  make(map[string]string),
		moveTo:     make(map[string]string),
		replAck:    make(chan struct{}, 1),
		replSent:   make(map[string]uint64),
		replAcked:  make(map[string]uint64),
		replTickAt: make(map[string]time.Time),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Start begins listening on addr (e.g. "127.0.0.1:0"). It returns once the
// listener is ready; connections are served in the background.
func (m *Master) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: master listen: %w", err)
	}
	m.Serve(ln)
	return nil
}

// Serve starts the master on an already-created listener (chaos tests
// inject fault-wrapped listeners this way).
func (m *Master) Serve(ln net.Listener) {
	m.ln = ln
	m.wg.Add(1)
	go acceptPeers(ln, &m.wg, m.serveConn, func(r any) {
		m.obs.Logger().Error("slave connection handler panicked", "panic", fmt.Sprint(r))
		m.obs.Registry().Counter("fchain_conn_panics_total", "Recovered connection handler panics.").Inc()
	})
	if m.hbInterval > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	if m.sharded() && m.autoRebalance {
		m.wg.Add(1)
		go m.rebalanceLoop()
	}
}

// Addr returns the listening address, valid after Start.
func (m *Master) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// serveConn handles one peer connection. A slave opens with a register
// frame and is served analyze responses; a violation client opens with a
// violate frame and is served verdicts (service mode).
func (m *Master) serveConn(conn net.Conn) {
	defer conn.Close()
	r := newReader(conn)
	env, err := readFrame(r)
	if err != nil {
		return
	}
	if env.Type == typeViolate {
		m.serveViolationConn(conn, r, env)
		return
	}
	if env.Type != typeRegister || env.Slave == "" {
		return // malformed or impatient peer; drop it
	}
	if env.Role == roleAggregator {
		m.serveAggregator(conn, r, env)
		return
	}
	sc := newPeer(env.Slave, conn)
	sc.components = append([]string(nil), env.Components...)
	sc.via = env.Via
	sc.replQ = make(chan *envelope, replQueueDepth)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	enroll(m.slaves, sc)
	delete(m.evicted, sc.name)
	for _, comp := range sc.components {
		m.known[comp] = true
	}
	registered := len(m.slaves)
	m.mu.Unlock()
	m.obs.Logger().Info("slave registered", "slave", sc.name, "components", len(sc.components), "via", sc.via)
	m.obs.Registry().Gauge("fchain_slaves_registered", "Currently registered slaves.").Set(float64(registered))
	_ = m.obs.EventJournal().Record("slave_registered", map[string]any{"slave": sc.name, "components": sc.components})
	if m.sharded() {
		_ = m.obs.EventJournal().Record("member_joined", map[string]any{"slave": sc.name})
		m.wg.Add(1)
		go m.pushPlacement(sc)
		m.triggerRebalance()
	}
	defer func() {
		m.mu.Lock()
		if m.slaves[sc.name] == sc {
			delete(m.slaves, sc.name)
			if !m.closed {
				m.evicted[sc.name] = true
			}
		}
		remaining := len(m.slaves)
		closed := m.closed
		m.mu.Unlock()
		m.obs.Logger().Warn("slave disconnected", "slave", sc.name)
		m.obs.Registry().Gauge("fchain_slaves_registered", "Currently registered slaves.").Set(float64(remaining))
		_ = m.obs.EventJournal().Record("slave_disconnected", map[string]any{"slave": sc.name})
		if m.sharded() && !closed {
			_ = m.obs.EventJournal().Record("member_evicted", map[string]any{"slave": sc.name})
			m.triggerRebalance()
		}
		sc.failAll(fmt.Sprintf("slave %s disconnected", sc.name))
	}()

	m.wg.Add(1)
	go m.drainReplicate(sc)
	sc.serveFrames(r, func(env *envelope) { m.queueReplicate(sc, env) })
	close(sc.replQ) // the reader above is the only sender
}

// pushPlacement tells a (re)joining slave what the current placement says it
// owns and shadows, so it re-creates those monitors (restoring from shared
// checkpoints where available) and answers the next Localize without waiting
// for a rebalance to move anything. ReplReset covers everything owned: a
// reconnecting slave may hold floors from before the outage while its
// components' standbys moved, so it re-ships full state once. Holding the
// rebalance lock keeps the lists current and keeps this authoritative push
// from landing in the middle of a pass.
func (m *Master) pushPlacement(sc *slaveConn) {
	defer m.wg.Done()
	m.rebalanceMu.Lock()
	defer m.rebalanceMu.Unlock()
	var owned, shadow []string
	m.mu.Lock()
	for comp, own := range m.owner {
		if own == sc.name {
			owned = append(owned, comp)
		}
	}
	m.mu.Unlock()
	m.replMu.Lock()
	for comp, st := range m.standbyOf {
		if st == sc.name {
			shadow = append(shadow, comp)
		}
	}
	m.replMu.Unlock()
	if owned == nil && shadow == nil {
		return
	}
	sort.Strings(owned)
	sort.Strings(shadow)
	_, _ = sc.request(&envelope{Type: typeAssign, Components: owned, Shadow: shadow, ReplReset: owned}, m.handoffTimeout, m.stop)
}

// queueReplicate takes one replicate frame off a slave's reader: a state
// frame from the component's current owner is counted as sent, and every
// frame that is to be relayed waits its turn in the slave's queue. A frame
// from anyone but the owner is acked and dropped here.
func (m *Master) queueReplicate(sc *slaveConn, env *envelope) {
	if env.Component != "" && !m.replFromOwner(sc.name, env.Component, func() { m.replSent[env.Component] = env.Seq }) {
		replAnswer(sc, env, "")
		return
	}
	select {
	case sc.replQ <- env:
	default:
		// Overflow: NAK instead of blocking the reader; the primary
		// recovers with a full resend on a later tick.
		replAnswer(sc, env, "cluster: replication relay queue full")
	}
}

// replQueueDepth bounds a slave's queued replicate frames awaiting relay. A
// full 10k-component sync at one frame per component fits with headroom;
// overflow NAKs rather than blocks.
const replQueueDepth = 16384

// drainReplicate relays one slave's replicate frames in arrival order until
// its connection dies. Ordering matters: an incremental delta only applies
// on top of the exact state the previous frame left behind.
func (m *Master) drainReplicate(sc *slaveConn) {
	defer m.wg.Done()
	for env := range sc.replQ {
		m.relayReplicate(sc, env)
	}
}

// replFromOwner runs fn on the replication books if sender currently owns
// comp, and reports whether it did. Ownership and the books change together
// at a rebalance cutover, which restarts the sequences, so the check and the
// update are one step: a previous owner's frame — late on the wire or still
// queued for relay — would push the books past anything the new owner sends.
func (m *Master) replFromOwner(sender, comp string, fn func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner[comp] != sender {
		return false
	}
	m.replMu.Lock()
	fn()
	m.replMu.Unlock()
	return true
}

// replAnswer reports a replicate frame's fate to the primary that shipped it:
// an ack, or with nak set a codeReplFull error that makes it forget the
// component's floors and resend the full snapshot.
func replAnswer(primary *slaveConn, env *envelope, nak string) {
	resp := &envelope{Type: typeAck, ID: env.ID, Component: env.Component, Seq: env.Seq}
	if nak != "" {
		resp.Type, resp.Code, resp.Err = typeError, codeReplFull, nak
	}
	_ = primary.w.write(resp, 5*time.Second)
}

// relayReplicate forwards one replication frame from the component's owner to
// its replication target, the body bytes as they arrived, and answers the
// owner: an ack advances the acked sequence, a NAK makes the owner resend the
// full snapshot. A frame whose sender no longer owns the component, or whose
// component has no target, is acked and dropped; a target that is expected
// but unreachable is NAKed, so the owner keeps offering the full snapshot —
// which is what warms a late-assigned or recovered standby when no new
// samples arrive. A clean-tick marker (empty Component) timestamps the
// slave's round for the lag bound.
func (m *Master) relayReplicate(primary *slaveConn, env *envelope) {
	if env.Component == "" {
		now := time.Now()
		m.replMu.Lock()
		prev := m.replTickAt[primary.name]
		m.replTickAt[primary.name] = now
		m.replMu.Unlock()
		lag := time.Duration(0)
		if !prev.IsZero() {
			lag = now.Sub(prev)
		}
		m.obs.Registry().GaugeWith("fchain_repl_lag_seconds",
			"Seconds between a slave's consecutive clean replication ticks, sampled at each tick.",
			map[string]string{"slave": primary.name}).Set(lag.Seconds())
		_ = m.obs.EventJournal().Record("repl_tick", map[string]any{
			"slave": primary.name, "lag_seconds": lag.Seconds()})
		replAnswer(primary, env, "")
		return
	}
	comp := env.Component
	var target string
	owns := m.replFromOwner(primary.name, comp, func() {
		if target = m.moveTo[comp]; target == "" {
			target = m.standbyOf[comp]
		}
	})
	if !owns || target == "" {
		replAnswer(primary, env, "")
		return
	}
	m.mu.Lock()
	tConn := m.slaves[target]
	m.mu.Unlock()
	if target == primary.name || tConn == nil || tConn.isDead() {
		replAnswer(primary, env, fmt.Sprintf("cluster: no live replication target for %q", comp))
		return
	}
	m.obs.Registry().Counter("fchain_repl_bytes_total",
		"Replication delta bytes relayed to standbys.").Add(int64(len(env.State)))
	_ = m.obs.EventJournal().Record("repl_relay", map[string]any{
		"component": comp, "from": primary.name, "to": target, "seq": env.Seq, "bytes": len(env.State)})
	relay := &envelope{Type: typeReplicate, Component: comp, Seq: env.Seq, State: env.State}
	if _, err := tConn.request(relay, m.handoffTimeout, m.stop); err != nil {
		replAnswer(primary, env, fmt.Sprintf("cluster: relay to %s: %v", target, err))
		return
	}
	if m.replFromOwner(primary.name, comp, func() { m.replAcked[comp] = env.Seq }) {
		select {
		case m.replAck <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
	replAnswer(primary, env, "")
}

// Standby returns the slave currently standing by for comp; ok is false when
// comp has no standby (standby mode off, fewer than two slaves, or no
// rebalance has placed it yet).
func (m *Master) Standby(comp string) (standby string, ok bool) {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	standby, ok = m.standbyOf[comp]
	return standby, ok
}

// StandbyCaughtUp reports whether comp's standby has acked every replication
// frame its owner has shipped so far (at least one): the condition under
// which a dead primary's component is promoted warm.
func (m *Master) StandbyCaughtUp(comp string) bool {
	m.replMu.Lock()
	defer m.replMu.Unlock()
	return m.replSent[comp] > 0 && m.replAcked[comp] == m.replSent[comp]
}

// serveAggregator handles one aggregator's upstream connection: it registers
// into the aggregator tier (not the slave set — aggregators own no
// components and do not count toward quorum) and is served like any other
// correlated-request peer.
func (m *Master) serveAggregator(conn net.Conn, r *bufio.Reader, env *envelope) {
	sc := newPeer(env.Slave, conn)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	enroll(m.aggs, sc)
	registered := len(m.aggs)
	m.mu.Unlock()
	m.obs.Logger().Info("aggregator registered", "aggregator", sc.name)
	m.obs.Registry().Gauge("fchain_aggregators_registered", "Currently registered aggregators.").Set(float64(registered))
	_ = m.obs.EventJournal().Record("aggregator_registered", map[string]any{"aggregator": sc.name})
	defer func() {
		m.mu.Lock()
		if m.aggs[sc.name] == sc {
			delete(m.aggs, sc.name)
		}
		remaining := len(m.aggs)
		m.mu.Unlock()
		m.obs.Logger().Warn("aggregator disconnected", "aggregator", sc.name)
		m.obs.Registry().Gauge("fchain_aggregators_registered", "Currently registered aggregators.").Set(float64(remaining))
		_ = m.obs.EventJournal().Record("aggregator_disconnected", map[string]any{"aggregator": sc.name})
		sc.failAll(fmt.Sprintf("aggregator %s disconnected", sc.name))
	}()
	sc.serveFrames(r, nil)
}

// heartbeatLoop probes every registered slave each interval and evicts the
// ones that keep missing pongs.
func (m *Master) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		conns := slices.AppendSeq(slices.Collect(maps.Values(m.slaves)), maps.Values(m.aggs))
		m.mu.Unlock()
		var wg sync.WaitGroup
		for _, sc := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.probe(sc)
			}()
		}
		wg.Wait()
	}
}

// probe sends one ping and records a miss if the pong does not arrive within
// the heartbeat interval; heartbeatMisses consecutive misses evict the slave.
func (m *Master) probe(sc *slaveConn) {
	_, err := sc.request(&envelope{Type: typePing}, m.hbInterval, m.stop)
	switch {
	case err == nil:
		sc.mu.Lock()
		sc.misses = 0
		sc.mu.Unlock()
	case errors.Is(err, errAborted) || sc.isDead():
		// shutting down, or the connection's own teardown already evicts it
	default:
		m.miss(sc)
	}
}

func (m *Master) miss(sc *slaveConn) {
	sc.mu.Lock()
	sc.misses++
	misses := sc.misses
	evict := sc.misses >= heartbeatMisses
	sc.mu.Unlock()
	m.obs.Logger().Debug("heartbeat miss", "slave", sc.name, "misses", misses)
	if evict {
		m.obs.Logger().Warn("evicting slave after missed heartbeats", "slave", sc.name, "misses", misses)
		m.obs.Registry().Counter("fchain_slave_evictions_total", "Slaves evicted for missed heartbeats.").Inc()
		// Closing the connection makes its serveConn exit, which evicts
		// the slave and fails any in-flight requests.
		_ = sc.w.conn.Close()
	}
}

// HealthState classifies a slave's liveness as seen by the master.
type HealthState string

const (
	// Healthy: registered, no outstanding heartbeat misses, breaker closed.
	Healthy HealthState = "healthy"
	// Degraded: registered but missing heartbeats or behind an open
	// circuit breaker.
	Degraded HealthState = "degraded"
	// Dead: evicted (connection lost or heartbeat limit hit) and not yet
	// re-registered.
	Dead HealthState = "dead"
)

// SlaveHealth is one slave's liveness snapshot.
type SlaveHealth struct {
	State       HealthState `json:"state"`
	Misses      int         `json:"misses,omitempty"`       // consecutive heartbeat misses
	Failures    int         `json:"failures,omitempty"`     // consecutive analyze failures
	BreakerOpen bool        `json:"breaker_open,omitempty"` // analyze fan-out is skipping it
}

// Health returns a liveness snapshot for every slave the master has seen:
// registered slaves are healthy or degraded; slaves lost since their last
// registration are dead.
func (m *Master) Health() map[string]SlaveHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]SlaveHealth, len(m.slaves)+len(m.evicted))
	for name, sc := range m.slaves {
		sc.mu.Lock()
		h := SlaveHealth{State: Healthy, Misses: sc.misses, Failures: sc.failures, BreakerOpen: sc.open}
		sc.mu.Unlock()
		if h.Misses > 0 || h.BreakerOpen {
			h.State = Degraded
		}
		out[name] = h
	}
	for name := range m.evicted {
		out[name] = SlaveHealth{State: Dead}
	}
	return out
}

// Slaves returns the names of the registered slaves, sorted.
func (m *Master) Slaves() []string { return tierNames(&m.mu, m.slaves) }

// Components returns every component monitored by a registered slave.
func (m *Master) Components() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, sc := range m.slaves {
		out = append(out, sc.components...)
	}
	sort.Strings(out)
	return out
}

// DiagnosisRecord is one past localization kept in the master's journal.
// Tenant and App are set for localizations that entered through the
// service-mode violation intake; ad-hoc Localize calls leave them empty.
type DiagnosisRecord struct {
	TV        int64          `json:"tv"`
	Tenant    string         `json:"tenant,omitempty"`
	App       string         `json:"app,omitempty"`
	Diagnosis core.Diagnosis `json:"diagnosis"`
	Degraded  bool           `json:"degraded,omitempty"`
}

// History returns the master's past localizations, oldest first (bounded to
// the most recent historyLimit entries).
func (m *Master) History() []DiagnosisRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DiagnosisRecord, len(m.history))
	copy(out, m.history)
	return out
}

// restoreHistory seeds the master's history with records rebuilt from a
// journal replay (oldest first). It prepends: localizations already run this
// process stay newest, and the combined journal is re-bounded to
// historyLimit.
func (m *Master) restoreHistory(recs []DiagnosisRecord) {
	if len(recs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	combined := make([]DiagnosisRecord, 0, len(recs)+len(m.history))
	combined = append(combined, recs...)
	combined = append(combined, m.history...)
	if len(combined) > historyLimit {
		combined = combined[len(combined)-historyLimit:]
	}
	m.history = combined
}

// attachService registers the service-mode intake so violation connections
// are routed to it; the latest attached service wins.
func (m *Master) attachService(s *Service) {
	m.mu.Lock()
	m.svc = s
	m.mu.Unlock()
}

// service returns the attached service-mode intake, if any.
func (m *Master) service() *Service {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.svc
}

// historyLimit bounds the master's diagnosis journal.
const historyLimit = 128

// ErrNoSlaves is returned by Localize when no slave is registered.
var ErrNoSlaves = errors.New("cluster: no slaves registered")

// Localize triggers the fault localization pipeline: every registered slave
// analyzes its look-back window ending at tv and the master diagnoses the
// combined reports. Each slave is asked once, and the ask may take the whole
// deadline — taken from ctx, or the configured default when ctx has none.
// Slaves that fail or do not answer in time are skipped: their
// components stay in the application size for the external-factor check
// (known from registration), and the returned LocalizeResult carries the
// resulting coverage so callers can tell a confident localization from a
// partial-view one.
func (m *Master) Localize(ctx context.Context, tv int64) (core.LocalizeResult, error) {
	return m.localize(ctx, tv, "", "")
}

// localize is Localize tagged with the service-mode tenant and app that
// triggered it (both empty for ad-hoc calls); the tags flow into the
// history record and the journal event. It runs the stages its trace names:
// admit, plan, fan out, gather, normalize, diagnose.
func (m *Master) localize(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
	var res core.LocalizeResult
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.localizeTO)
		defer cancel()
	}
	if err := m.admitLocalize(tv, &res); err != nil {
		return res, err
	}
	defer m.admit.release()

	tr := obs.NewTrace("localize", tv)
	root := tr.Start(-1, "localize")
	p, err := m.planLocalize(ctx, tv, &res)
	if err != nil {
		return res, err
	}
	tr.AttrInt(root, "slaves", int64(res.SlavesTotal))
	tr.AttrInt(root, "components", int64(res.ComponentsKnown))

	deadline, _ := ctx.Deadline()
	collected := gather(m.fanOut(ctx, p), p.names, p.need,
		func(a slaveAnswer) (string, bool) { return a.slave, a.err == nil },
		func(name string) slaveAnswer {
			return slaveAnswer{slave: name, err: fmt.Errorf("cluster: slave %s: deadline exceeded", name)}
		}, deadline, ctx.Done())
	// Sort by slave name: fan-out answers arrive in racy order, and the ask
	// spans must be deterministic for trace-normalized goldens.
	sort.Slice(collected, func(i, j int) bool { return collected[i].slave < collected[j].slave })

	reports := m.normalize(p, collected, tr, root, &res)
	if err := m.checkCoverage(p, len(reports), &res); err != nil {
		return res, err
	}
	m.diagnose(reports, tr, root, &res)
	m.instrumentLocalize(tv, tenantName, app, &res)
	m.mu.Lock()
	m.history = append(m.history, DiagnosisRecord{TV: tv, Tenant: tenantName, App: app, Diagnosis: res.Diagnosis, Degraded: res.Degraded})
	if len(m.history) > historyLimit {
		m.history = m.history[len(m.history)-historyLimit:]
	}
	m.mu.Unlock()
	return res, nil
}

// countLocalize counts one Localize call by outcome.
func (m *Master) countLocalize(outcome string) {
	m.obs.Registry().CounterWith("fchain_localize_total", "Localize calls by outcome.",
		map[string]string{"outcome": outcome}).Inc()
}

// admitLocalize passes the call through admission control: under overload it
// is shed before any fan-out happens.
func (m *Master) admitLocalize(tv int64, res *core.LocalizeResult) error {
	if m.admit.tryAcquire() {
		return nil
	}
	res.Overloaded = true
	m.countLocalize("shed")
	m.obs.Logger().Warn("localize shed by admission control", "tv", tv, "err", ErrOverloaded)
	_ = m.obs.EventJournal().Record("localize_shed", map[string]any{"tv": tv})
	// Waiting longer than one full localize cycle is never necessary.
	hint := min(retryAfter, m.localizeTO)
	res.RetryAfterMS = hint.Milliseconds()
	return &OverloadedError{RetryAfter: hint}
}

// localizePlan is what one Localize runs over: the membership and placement
// as of its start.
type localizePlan struct {
	tv    int64
	conns map[string]*slaveConn // every registered slave
	names []string              // conns' keys, sorted
	aggs  map[string]*slaveConn
	known []string // every component ever registered, sorted
	// ownerOf is the sharded placement: it decides which slave's report
	// counts for each component. A component mid-rebalance can be reported
	// by both its old and new owner for one window; filtering on the owner
	// map keeps exactly one report per component.
	ownerOf  map[string]string
	lookBack int
	need     int // answer quorum; 0 = wait for every slave
}

// planLocalize snapshots membership and placement.
func (m *Master) planLocalize(ctx context.Context, tv int64, res *core.LocalizeResult) (*localizePlan, error) {
	p := &localizePlan{tv: tv, lookBack: m.cfg.LookBack}
	if p.lookBack <= 0 {
		p.lookBack = core.DefaultConfig().LookBack
	}
	m.mu.Lock()
	if len(m.slaves) == 0 {
		m.mu.Unlock()
		m.countLocalize("no_slaves")
		return nil, ErrNoSlaves
	}
	p.conns, p.aggs = maps.Clone(m.slaves), maps.Clone(m.aggs)
	// The application's size counts every component ever registered: a
	// slave that died does not shrink the application, and the
	// external-factor check must not misread a partial view as "all
	// components abnormal".
	p.known = slices.Sorted(maps.Keys(m.known))
	if m.sharded() && len(m.owner) > 0 {
		p.ownerOf = maps.Clone(m.owner)
	}
	m.mu.Unlock()
	p.names = slices.Sorted(maps.Keys(p.conns))
	res.SlavesTotal = len(p.names)
	res.ComponentsKnown = len(p.known)
	p.need = quorumNeed(m.quorum, len(p.names))
	if deadline, _ := ctx.Deadline(); time.Until(deadline) <= 0 {
		return nil, context.DeadlineExceeded
	}
	return p, nil
}

// fanOut starts one ask per slave and returns the channel their answers
// arrive on — exactly one slaveAnswer per registered slave. Slaves registered
// via a live aggregator are asked through it (one analyze frame per subtree,
// the aggregator answers with per-slave sub-entries); everything else — and
// every member of a subtree whose aggregator fails mid-localization — is
// asked over its always-present direct connection.
func (m *Master) fanOut(ctx context.Context, p *localizePlan) <-chan slaveAnswer {
	answers := make(chan slaveAnswer, len(p.names))
	units := make(map[*slaveConn][]*slaveConn)
	for _, name := range p.names {
		sc := p.conns[name]
		if agg := p.aggs[sc.via]; agg != nil && !agg.isDead() {
			units[agg] = append(units[agg], sc)
			continue
		}
		go m.askDirect(ctx, p, sc, answers)
	}
	for agg, members := range units {
		go m.askSubtree(ctx, p, agg, members, answers)
	}
	return answers
}

// normalize folds the gathered answers into the result: coverage and error
// accounting, one ask span per slave (an answered one timed from its
// fan-out to its answer), the breaker charge for every ask that
// failed or was given up on, and each report filtered to its component's
// owner.
func (m *Master) normalize(p *localizePlan, collected []slaveAnswer, tr *obs.Trace, root int, res *core.LocalizeResult) []core.ComponentReport {
	// The request fans out to every slave at once, so the pool width is the
	// slave count; the select histogram records each slave's answer latency
	// (its remote selection work plus the wire).
	res.Stats.Workers = len(p.names)
	res.Stats.Tasks = len(p.names)
	var reports []core.ComponentReport
	seen := make(map[string]bool)
	for _, a := range collected {
		ask := tr.Start(root, "ask:"+a.slave)
		if a.via != "" {
			tr.Attr(ask, "via", a.via)
		}
		if a.err != nil {
			// Charged here, before Localize returns, so the next call sees
			// the breaker's verdict whenever the abandoned ask itself wakes.
			if !a.skipped {
				p.conns[a.slave].recordResult(false, m.brThreshold)
			}
			tr.Attr(ask, "error", a.err.Error())
			tr.End(ask)
			m.obs.Logger().Warn("slave analyze failed", "slave", a.slave, "err", a.err)
			res.Errors = append(res.Errors, a.err.Error())
			continue
		}
		tr.AttrInt(ask, "reports", int64(len(a.reports)))
		// The span is opened only now, after gather; it covers the ask's
		// own measured interval instead.
		tr.SetInterval(ask, a.start, time.Duration(a.waitNS))
		res.SlavesAnswered++
		res.Stats.Select.Observe(a.waitNS)
		m.obs.Registry().Histogram("fchain_slave_answer_latency_ns",
			"Per-slave analyze answer latency (remote selection plus the wire).").Observe(a.waitNS)
		for _, rep := range a.reports {
			if own, placed := p.ownerOf[rep.Component]; placed && own != a.slave {
				continue // stale owner mid-rebalance; the current owner's report counts
			}
			seen[rep.Component] = true
			if rep.Quality != (core.DataQuality{}) {
				if res.Quality == nil {
					res.Quality = make(map[string]core.DataQuality)
				}
				res.Quality[rep.Component] = rep.Quality
			}
			if rep.Truncated {
				res.Truncated = true
			}
			if len(rep.Quarantined) > 0 {
				if res.Quarantined == nil {
					res.Quarantined = make(map[string][]string)
				}
				res.Quarantined[rep.Component] = rep.Quarantined
			}
			reports = append(reports, rep)
		}
	}
	res.ComponentsReported = len(seen)
	res.Degraded = res.SlavesAnswered < res.SlavesTotal || res.ComponentsReported < res.ComponentsKnown
	for _, comp := range p.known {
		if !seen[comp] {
			res.MissingComponents = append(res.MissingComponents, comp)
		}
	}
	return reports
}

// checkCoverage refuses to diagnose over too little: fewer answers than the
// quorum, or no report at all.
func (m *Master) checkCoverage(p *localizePlan, reports int, res *core.LocalizeResult) error {
	if p.need > 0 && res.SlavesAnswered < p.need {
		m.countLocalize("quorum")
		m.obs.Logger().Error("localize refused: quorum not met", "tv", p.tv,
			"answered", res.SlavesAnswered, "need", p.need, "total", res.SlavesTotal)
		_ = m.obs.EventJournal().Record("localize_quorum_not_met", map[string]any{
			"tv": p.tv, "answered": res.SlavesAnswered, "need": p.need, "total": res.SlavesTotal})
		return fmt.Errorf("%w: %d/%d slaves answered, need %d",
			ErrQuorumNotMet, res.SlavesAnswered, res.SlavesTotal, p.need)
	}
	if reports == 0 && len(res.Errors) > 0 {
		m.countLocalize("error")
		m.obs.Logger().Error("localize failed: no slave answered", "tv", p.tv, "first_err", res.Errors[0])
		_ = m.obs.EventJournal().Record("localize_failed", map[string]any{"tv": p.tv, "errors": res.Errors})
		return fmt.Errorf("cluster: all slaves failed: %s", res.Errors[0])
	}
	return nil
}

// diagnose runs the integrated diagnosis over the normalized reports and
// closes the trace.
func (m *Master) diagnose(reports []core.ComponentReport, tr *obs.Trace, root int, res *core.LocalizeResult) {
	res.Diagnosis = core.DiagnosePass(reports, res.ComponentsKnown, m.deps, m.cfg, &res.Stats, tr, root)
	tr.Attr(root, "verdict", res.Diagnosis.String())
	tr.AttrBool(root, "degraded", res.Degraded)
	if res.Truncated {
		tr.AttrBool(root, "truncated", true)
	}
	tr.End(root)
	res.Trace = tr
	m.obs.TraceRing().Add(tr)
}

// instrumentLocalize records one completed localization in the sink's
// metrics, journal, and log (all no-ops without a sink).
func (m *Master) instrumentLocalize(tv int64, tenantName, app string, res *core.LocalizeResult) {
	if m.obs == nil {
		return
	}
	reg := m.obs.Registry()
	m.countLocalize("ok")
	reg.Counter("fchain_diagnose_total", "Integrated diagnosis passes.").Inc()
	if res.Degraded {
		reg.Counter("fchain_localize_degraded_total", "Localizations over a partial view.").Inc()
	}
	sel := res.Stats.Select
	reg.Histogram("fchain_selection_latency_ns", "Abnormal change point selection latency.").
		Merge(sel)
	diag := res.Stats.Diagnose
	reg.Histogram("fchain_diagnose_latency_ns", "Integrated diagnosis latency.").
		Merge(diag)
	m.obs.Logger().Info("localize complete",
		"tv", tv,
		"verdict", res.Diagnosis.String(),
		"slaves", fmt.Sprintf("%d/%d", res.SlavesAnswered, res.SlavesTotal),
		"degraded", res.Degraded)
	ev := map[string]any{
		"tv":        tv,
		"culprits":  res.Diagnosis.CulpritNames(),
		"external":  res.Diagnosis.ExternalFactor,
		"chain_len": len(res.Diagnosis.Chain),
		"slaves":    res.SlavesAnswered,
		"degraded":  res.Degraded,
	}
	if tenantName != "" {
		ev["tenant"] = tenantName
		ev["app"] = app
	}
	_ = m.obs.EventJournal().Record("localize", ev)
}

// slaveAnswer is one slave's outcome inside a Localize fan-out, whether it
// arrived directly or through an aggregator (via names the aggregator then).
// An answered ask ran from start for waitNS. skipped marks an ask refused on
// this side (open breaker): it never reached the slave, so it says nothing
// about the slave's health.
type slaveAnswer struct {
	slave   string
	via     string
	reports []core.ComponentReport
	start   time.Time
	waitNS  int64
	skipped bool
	err     error
}

// askDirect runs one slave's direct ask behind its circuit breaker and
// delivers exactly one slaveAnswer. A success closes the breaker here,
// whenever it arrives; failures are charged by normalize, once per Localize,
// so an ask abandoned at the deadline is never charged twice.
func (m *Master) askDirect(ctx context.Context, p *localizePlan, sc *slaveConn, answers chan<- slaveAnswer) {
	if m.brThreshold > 0 && sc.breakerOpen(m.brCooldown) {
		answers <- slaveAnswer{slave: sc.name, skipped: true, err: fmt.Errorf("cluster: circuit open for slave %s", sc.name)}
		return
	}
	start := time.Now()
	env, err := m.askSlave(ctx, p, sc, nil)
	a := slaveAnswer{slave: sc.name, start: start, waitNS: time.Since(start).Nanoseconds(), err: err}
	if err == nil {
		sc.recordResult(true, m.brThreshold)
		a.reports = env.Reports
	}
	answers <- a
}

// askSubtree asks one aggregator for its whole subtree and fans the merged
// answer back out into per-slave answers. Any member the aggregator could
// not cover — including every member when the aggregator itself dies
// mid-localization — falls back to a direct ask on the member's own
// connection, so a dead aggregator degrades the tree to the flat topology
// instead of blinding a whole subtree.
func (m *Master) askSubtree(ctx context.Context, p *localizePlan, agg *slaveConn, members []*slaveConn, answers chan<- slaveAnswer) {
	names := make([]string, len(members))
	for i, sc := range members {
		names[i] = sc.name
	}
	sort.Strings(names)
	start := time.Now()
	env, err := m.askSlave(ctx, p, agg, names)
	elapsed := time.Since(start).Nanoseconds()
	covered := make(map[string]subAnswer, len(names))
	if err == nil {
		for _, s := range env.Sub {
			if s.Err == "" {
				covered[s.Slave] = s
			}
		}
	}
	for _, sc := range members {
		s, ok := covered[sc.name]
		if !ok {
			// Fallback budget: whatever remains of the deadline.
			go m.askDirect(ctx, p, sc, answers)
			m.obs.Registry().Counter("fchain_aggregator_fallbacks_total",
				"Subtree members re-asked directly after an aggregator failure.").Inc()
			continue
		}
		wait := s.WaitNS
		if wait <= 0 {
			wait = elapsed
		}
		answers <- slaveAnswer{slave: sc.name, via: agg.name, reports: s.Reports, start: start, waitNS: wait}
	}
}

// askSlave sends the one analyze request and waits for the reports frame.
// Its wait is whatever remains of the deadline, and the slave receives that
// wait as its analysis budget (BudgetMS) so remote selection skips what it
// cannot start in time instead of overshooting the master's patience. A
// non-nil subtree turns the request into an aggregator ask covering those
// slave names.
func (m *Master) askSlave(ctx context.Context, p *localizePlan, sc *slaveConn, subtree []string) (*envelope, error) {
	dl, _ := ctx.Deadline()
	wait := time.Until(dl)
	if wait <= 0 {
		return nil, fmt.Errorf("cluster: slave %s: %w", sc.name, context.DeadlineExceeded)
	}
	// omitempty would drop a 0 budget, reading as "no deadline".
	req := &envelope{Type: typeAnalyze, TV: p.tv, LookBack: p.lookBack,
		BudgetMS: max(wait.Milliseconds(), 1), Subtree: subtree}
	reply, err := sc.request(req, wait, ctx.Done())
	switch {
	case err == nil:
		return reply, nil
	case errors.Is(err, errAborted):
		return nil, fmt.Errorf("cluster: slave %s: %w", sc.name, ctx.Err())
	case reply != nil && reply.Code == codeOverloaded:
		m.obs.Registry().Counter("fchain_slave_overloaded_total",
			"Analyze requests shed by slave admission control.").Inc()
	}
	return nil, err
}

// Close shuts the master down and waits for its goroutines.
func (m *Master) Close() error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.stop)
	}
	for _, sc := range m.slaves {
		_ = sc.w.conn.Close()
	}
	for _, sc := range m.aggs {
		_ = sc.w.conn.Close()
	}
	m.mu.Unlock()
	var err error
	if m.ln != nil {
		err = m.ln.Close()
	}
	m.wg.Wait()
	return err
}
