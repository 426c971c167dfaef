package cluster

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fchain/internal/core"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// ConnState describes the slave's link to the master, reported to the
// logger and the journal.
type ConnState int

const (
	// StateConnected: registered with the master and serving requests.
	StateConnected ConnState = iota
	// StateDisconnected: the connection dropped (or a reconnect attempt
	// failed); the callback's error carries the cause.
	StateDisconnected
	// StateReconnecting: about to re-dial after a backoff delay.
	StateReconnecting
	// StateClosed: Close was called (or the reconnect context was
	// canceled); no further attempts will be made.
	StateClosed
)

// String returns the state name.
func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateDisconnected:
		return "disconnected"
	case StateReconnecting:
		return "reconnecting"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("ConnState(%d)", int(s))
	}
}

// Default reconnect backoff bounds (see redial).
const (
	defaultBackoffInitial = 500 * time.Millisecond
	defaultBackoffMax     = 15 * time.Second
)

// checkpointInterval is how often a slave with a checkpoint directory
// re-checkpoints its models; Close always writes a final checkpoint, so a
// clean shutdown loses nothing and a crash loses at most this much.
const checkpointInterval = 30 * time.Second

// Slave is the FChain slave daemon for one host: it runs the normal
// fluctuation models for the components (guest VMs) on that host and
// answers the master's analyze requests with abnormal change point reports
// (paper Fig. 1: the slave modules run inside Domain 0 of each cloud node).
//
// The slave survives master outages: metric collection is purely local, so
// models keep learning while the link is down, and the connection manager
// re-dials and re-registers with capped exponential backoff until Close (or
// the Connect context) stops it. After a reconnect the slave can answer
// analyze requests over its full retained ring — an outage costs the master
// nothing but the time it lasted.
type Slave struct {
	name string
	cfg  core.Config

	dial           func(addr string) (net.Conn, error)
	backoffInitial time.Duration
	backoffMax     time.Duration
	reconnect      bool
	onState        func(ConnState, error) // a test's observer; nil otherwise

	// Observability sink plus pre-resolved hot-path metrics: the per-sample
	// ingest counters are looked up once at construction so feeding a sample
	// costs one atomic increment (or nothing, without a sink).
	obs           *obs.Sink
	ingestSamples *obs.Counter
	ingestErrors  *obs.Counter

	// Crash-safe model persistence: with a checkpoint directory set, every
	// coldStart restores the monitor from its last checkpoint, and the slave
	// re-checkpoints every checkpointInterval until Close.
	checkpointDir string
	restored      []string // components restored at construction, sorted

	// Monitor state needs no slave-level lock: core.Monitor shards its
	// state per metric, so collection (Observe/Ingest), analysis, and
	// checkpoint snapshots running on different goroutines synchronize on
	// the shard mutexes and contend only per metric touched.

	// Replication (owner side): the slave ships an owned component's state
	// delta upstream — every owned component each tick with replInterval > 0,
	// the components an assign push names as ReplReset right away — and the
	// master relays each frame to the component's replication target.
	// repl holds, per component, the channel's floors cursor (the
	// incremental extraction floor per metric; no entry, or forgotten floors,
	// force a full frame) and frame sequence. Floors advance optimistically
	// on send; a NAK (codeReplFull) or a ReplReset forgets them, recording
	// why, so the next ship is full. shipMu serializes ships (a tick and a
	// push must not number the same component's frames concurrently) and
	// guards replBuf and replEnc, the extraction and encoding buffers reused
	// so steady-state replication allocates only its frames.
	replInterval time.Duration
	stop         chan struct{} // closed by Close; ends the checkpoint and replication loops
	replID       atomic.Uint64 // frame IDs for slave-originated replicate frames
	shipMu       sync.Mutex
	replBuf      core.ReplDelta
	replEnc      []byte
	replMu       sync.Mutex
	repl         map[string]*replChannel

	// analyzeGate bounds concurrent analyze work; nil admits everything.
	analyzeGate *gate

	// via names the aggregator this slave also answers through; it rides on
	// every register frame so the master can group the slave into that
	// aggregator's subtree while keeping the direct link for fallback asks.
	via string

	// monitors is the owned component → monitor set, published
	// copy-on-write: it is replaced, never mutated, and only under mu, so the
	// per-sample feed and every reader load it without taking mu.
	monitors atomic.Pointer[monitorSet]

	mu sync.Mutex
	// shadows are the warm-standby monitors this slave keeps for components
	// owned elsewhere: built purely from relayed replication deltas, never
	// from the checkpoint dir (the primary owns that file), and promoted to
	// live monitors in place when an assign push hands the component over.
	shadows map[string]*core.Monitor
	ups     []*upstream // every Connect call adds one managed upstream
	closed  bool
	wg      sync.WaitGroup
}

// monitorSet is one immutable publication of a slave's owned monitors.
type monitorSet struct {
	names  []string // sorted
	byName map[string]*core.Monitor
}

// publish makes byName the slave's owned set. The caller holds s.mu, or is
// the constructor, and hands over byName, which nobody mutates afterwards.
func (s *Slave) publish(byName map[string]*core.Monitor) {
	s.monitors.Store(&monitorSet{names: slices.Sorted(maps.Keys(byName)), byName: byName})
}

// upstream is one managed connection (to the master, or in tree mode also to
// an aggregator): a slave in a hierarchical topology answers analyze
// requests on every upstream identically, so the master can fall back to the
// direct link when the aggregator dies mid-localization.
type upstream struct {
	addr   string
	cancel context.CancelFunc
	peer   *slaveConn // the current connection; guarded by the slave's mu, nil while disconnected
}

// SlaveOption configures a Slave.
type SlaveOption interface {
	apply(*Slave)
}

type slaveOptionFunc func(*Slave)

func (f slaveOptionFunc) apply(s *Slave) { f(s) }

// WithBackoff overrides the reconnect backoff bounds: the first retry waits
// ~initial (jittered), doubling per consecutive failure up to max.
func WithBackoff(initial, max time.Duration) SlaveOption {
	return slaveOptionFunc(func(s *Slave) {
		if initial > 0 {
			s.backoffInitial = initial
		}
		if max > 0 {
			s.backoffMax = max
		}
	})
}

// WithReconnect toggles automatic reconnection (default on). With reconnect
// off, a dropped connection leaves the slave collecting locally until
// Connect is called again.
func WithReconnect(on bool) SlaveOption {
	return slaveOptionFunc(func(s *Slave) { s.reconnect = on })
}

// WithDialer overrides how the slave dials the master; chaos tests inject
// fault-wrapped connections through this.
func WithDialer(dial func(addr string) (net.Conn, error)) SlaveOption {
	return slaveOptionFunc(func(s *Slave) { s.dial = dial })
}

// WithCheckpointDir enables crash-safe model persistence: the slave restores
// each monitor from dir at construction (unreadable or corrupted checkpoints
// cold-start that component) and periodically checkpoints the learned models
// and retained ring tails back to it. Losing a slave's models otherwise
// costs the whole self-calibration history: the restarted daemon would flag
// every workload fluctuation as "never seen before" until it relearns.
func WithCheckpointDir(dir string) SlaveOption {
	return slaveOptionFunc(func(s *Slave) { s.checkpointDir = dir })
}

// WithReplication enables warm-standby replication: every interval the slave
// ships each owned component's state delta upstream (a full snapshot first,
// incremental sample replays after), and the master relays each frame to the
// component's standby. Replication reads monitor state only at tick time —
// the per-sample Observe/Ingest hot path is untouched (benchmark/'s
// failover-churn workload measures Ingest racing it). d <= 0 (the default)
// disables replication.
func WithReplication(interval time.Duration) SlaveOption {
	return slaveOptionFunc(func(s *Slave) {
		if interval > 0 {
			s.replInterval = interval
		}
	})
}

// WithSlaveAdmission bounds concurrent analyze work on the slave: at most
// limit requests analyze at once, and a request past the limit is answered
// with a structured "overloaded" error frame so the master can fail fast
// instead of burning its budget. limit <= 0 (the default) admits everything.
func WithSlaveAdmission(limit int) SlaveOption {
	return slaveOptionFunc(func(s *Slave) { s.analyzeGate = newGate(limit) })
}

// WithVia tags the slave's registrations with the name of the aggregator it
// also answers through: the master groups tagged slaves into that
// aggregator's analyze subtree and uses this direct connection only for
// fallback asks. The tag is advisory — an unknown or dead aggregator name
// simply leaves the slave on the master's direct fan-out path.
func WithVia(aggregator string) SlaveOption {
	return slaveOptionFunc(func(s *Slave) { s.via = aggregator })
}

// WithSlaveObs attaches an observability sink: ingest and analyze counters
// plus selection latency histograms land in its registry, each analyze
// request's trace in its trace ring, events in its journal, and connection
// state transitions in its logger. A nil sink (the default) disables
// everything.
func WithSlaveObs(sink *obs.Sink) SlaveOption {
	return slaveOptionFunc(func(s *Slave) { s.obs = sink })
}

// NewSlave creates a slave monitoring the given components.
func NewSlave(name string, components []string, cfg core.Config, opts ...SlaveOption) *Slave {
	s := &Slave{
		name: name,
		cfg:  cfg,
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		},
		backoffInitial: defaultBackoffInitial,
		backoffMax:     defaultBackoffMax,
		reconnect:      true,
		shadows:        make(map[string]*core.Monitor),

		stop: make(chan struct{}),
		repl: make(map[string]*replChannel),
	}
	for _, o := range opts {
		o.apply(s)
	}
	monitors := make(map[string]*core.Monitor, len(components))
	for _, c := range components {
		if _, dup := monitors[c]; dup {
			continue
		}
		mon, restored := s.coldStart(c)
		monitors[c] = mon
		if restored {
			s.restored = append(s.restored, c)
		}
	}
	sort.Strings(s.restored)
	s.publish(monitors)
	s.ingestSamples = s.obs.Registry().Counter("fchain_ingest_samples_total",
		"Metric samples fed into the slave's models.")
	s.ingestErrors = s.obs.Registry().Counter("fchain_ingest_errors_total",
		"Samples rejected by the ingest path.")
	if s.checkpointDir != "" {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	if s.replInterval > 0 {
		s.wg.Add(1)
		go s.replLoop()
	}
	return s
}

// checkpointPath names one component's checkpoint file; the component name
// is path-escaped so arbitrary names (e.g. "tenant/db") stay one file.
func (s *Slave) checkpointPath(component string) string {
	return filepath.Join(s.checkpointDir, url.PathEscape(component)+".ckpt")
}

// coldStart returns a new monitor for component, restored from the
// component's checkpoint file when the slave has a checkpoint directory,
// and reports whether the restore happened. Every way a component arrives
// without replicated state — construction, or an assign with no shadow to
// promote — goes through here. The restore is best-effort by design: a
// missing file, bad checksum, another format or version, or invalid state
// leaves the monitor fresh (LoadCheckpoint changes nothing it rejects),
// because a slave that refuses to start over a stale checkpoint is worse
// than one that relearns.
func (s *Slave) coldStart(component string) (*core.Monitor, bool) {
	mon := core.NewMonitor(component, s.cfg)
	if s.checkpointDir == "" {
		return mon, false
	}
	return mon, mon.LoadCheckpoint(s.checkpointPath(component)) == nil
}

// RestoredComponents returns the components whose state was successfully
// restored from checkpoints at construction, sorted.
func (s *Slave) RestoredComponents() []string {
	return append([]string(nil), s.restored...)
}

// CheckpointNow writes every monitor's checkpoint atomically, returning the
// first error encountered (the remaining components are still attempted).
func (s *Slave) CheckpointNow() error {
	if s.checkpointDir == "" {
		return fmt.Errorf("cluster: slave %s has no checkpoint directory", s.name)
	}
	if err := os.MkdirAll(s.checkpointDir, 0o755); err != nil {
		return fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	var firstErr error
	_, monitors := s.owned()
	for comp, mon := range monitors {
		if err := mon.SaveCheckpoint(s.checkpointPath(comp)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// owned returns the owned components, sorted, and their monitors: the
// current publication itself, which callers walk without holding the
// slave's lock across snapshots, analysis, or I/O, and must not modify.
func (s *Slave) owned() ([]string, map[string]*core.Monitor) {
	set := s.monitors.Load()
	return set.names, set.byName
}

// livePeer returns the first upstream currently connected, or nil.
func (s *Slave) livePeer() *slaveConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, up := range s.ups {
		if up.peer != nil {
			return up.peer
		}
	}
	return nil
}

// checkpointLoop re-checkpoints the models periodically until Close.
func (s *Slave) checkpointLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(checkpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			_ = s.CheckpointNow()
		}
	}
}

// replLoop runs a replication tick each interval until Close.
func (s *Slave) replLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.replInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.replicateOnce()
		}
	}
}

// replicateOnce runs one replication tick: it ships every owned component,
// then a clean-tick marker frame so the master can bound this slave's
// replication lag.
func (s *Slave) replicateOnce() {
	peer := s.livePeer()
	if peer == nil {
		return
	}
	w := peer.w
	names, monitors := s.owned()
	// Drop the channels of components that moved away since the last tick.
	s.replMu.Lock()
	for comp := range s.repl {
		if _, owned := monitors[comp]; !owned {
			delete(s.repl, comp)
		}
	}
	s.replMu.Unlock()
	if s.ship(w, names, monitors) {
		_ = w.write(&envelope{Type: typeReplicate, ID: s.replID.Add(1), Slave: s.name}, 10*time.Second)
	}
}

// ship sends one replication frame for each named component that has
// anything to say: an incremental delta (samples since the shipped floors),
// or a full frame (first ship, or after a gap, NAK or ReplReset), counted by
// cause in fchain_repl_full_total. Floors advance optimistically after each
// successful write; the master's per-frame response only matters when it is
// a codeReplFull NAK, which serveLoop answers by forgetting the component's
// floors. It reports false when the connection failed mid-way; the next ship
// retries on whatever link is up.
func (s *Slave) ship(w *connWriter, names []string, monitors map[string]*core.Monitor) bool {
	s.shipMu.Lock()
	defer s.shipMu.Unlock()
	buf := &s.replBuf
	for _, comp := range names {
		mon := monitors[comp]
		if mon == nil {
			continue
		}
		s.replMu.Lock()
		ch := s.repl[comp]
		if ch == nil {
			ch = new(replChannel)
			s.repl[comp] = ch
		}
		floors, seq := ch.floors, ch.seq+1
		s.replMu.Unlock()
		cause, changed := mon.FrameInto(buf, &floors)
		if !changed {
			continue // nothing new to ship
		}
		// AppendBinary fails on nothing FrameInto builds.
		s.replEnc, _ = buf.AppendBinary(s.replEnc[:0])
		frame := &envelope{Type: typeReplicate, ID: s.replID.Add(1), Slave: s.name,
			Component: comp, Seq: seq, State: s.replEnc}
		if err := w.write(frame, 10*time.Second); err != nil {
			return false
		}
		s.replMu.Lock()
		ch.seq = seq
		buf.AdvanceFloors(&ch.floors)
		s.replMu.Unlock()
		if buf.Full {
			s.obs.Registry().CounterWith("fchain_repl_full_total",
				"Full replication frames shipped, by why the incremental path could not be used.",
				map[string]string{"cause": string(cause)}).Inc()
			// A full frame's ring-sized encoding is not kept: a resync is
			// rare, and the buffer would stay resident beside the monitors.
			s.replEnc = nil
		}
	}
	return true
}

// handleReplicate applies one relayed replication delta to this slave's
// shadow monitor for the component (receiving side). A delta for a component
// without a shadow needs a Full frame to bootstrap one; an incremental frame
// whose Base precondition fails — missing samples between primary and shadow
// — is refused with codeReplFull so the relay NAKs the primary into a full
// resend. So is a frame for a component this slave still owns: the sender's
// placement is ahead of ours (our own assign push is still in flight), and an
// ack would tell the master a shadow exists that does not. Called inline from
// serveLoop: per-connection ordering is what keeps one component's deltas
// applying in ship order. The frame decodes into delta, the connection's
// reused ReplDelta.
func (s *Slave) handleReplicate(w *connWriter, env *envelope, delta *core.ReplDelta) {
	comp := env.Component
	refuse := func(why any) {
		_ = w.write(&envelope{Type: typeError, ID: env.ID, Component: comp, Code: codeReplFull,
			Err: fmt.Sprintf("slave %s: replicate %q: %v", s.name, comp, why)}, 10*time.Second)
	}
	if err := core.DecodeDelta(env.State, delta); err != nil {
		refuse(err)
		return
	}
	if delta.Full {
		// A full frame's runs alias its ring-sized body and its models are
		// its own; the connection's delta keeps neither past this frame.
		defer func() { *delta = core.ReplDelta{} }()
	}
	s.mu.Lock()
	_, owned := s.monitors.Load().byName[comp]
	mon := s.shadows[comp]
	s.mu.Unlock()
	switch {
	case owned:
		refuse("still owned here")
		return
	case mon == nil && !delta.Full:
		refuse("no shadow")
		return
	case mon == nil:
		mon = core.NewMonitor(comp, s.cfg)
	}
	if err := mon.ApplyDelta(delta); err != nil {
		refuse(err)
		return
	}
	s.mu.Lock()
	if _, nowOwned := s.monitors.Load().byName[comp]; !nowOwned {
		s.shadows[comp] = mon
	}
	s.mu.Unlock()
	_ = w.write(&envelope{Type: typeAck, ID: env.ID, Component: comp, Seq: env.Seq}, 10*time.Second)
}

// Name returns the slave's registration name.
func (s *Slave) Name() string { return s.name }

// Observe feeds one metric sample into the slave's models through the
// strict path (finite values, strictly advancing timestamps — see
// core.Monitor.Observe). It may be called before, after, or between
// connections; collection is local and continuous, so models keep learning
// through master outages.
func (s *Slave) Observe(component string, t int64, k metric.Kind, v float64) error {
	return s.feed(component, func(mon *core.Monitor) error { return mon.Observe(t, k, v) })
}

// Ingest feeds one possibly-dirty metric sample through the component's
// sanitizing path (see core.Monitor.Ingest): garbage is dropped, bounded
// out-of-order arrival reordered, short gaps interpolated, and the damage
// accounted in the quality counters carried by every report.
func (s *Slave) Ingest(component string, t int64, k metric.Kind, v float64) error {
	return s.feed(component, func(mon *core.Monitor) error { return mon.Ingest(t, k, v) })
}

// feed hands the owned component's monitor to put and counts the outcome.
func (s *Slave) feed(component string, put func(*core.Monitor) error) error {
	mon, ok := s.monitors.Load().byName[component]
	if !ok {
		return fmt.Errorf("cluster: slave %s does not monitor %q", s.name, component)
	}
	err := put(mon)
	if err != nil {
		s.ingestErrors.Inc()
	} else {
		s.ingestSamples.Inc()
	}
	return err
}

// Quality reports per-component data quality accumulated by the sanitizing
// ingest path (components fed only through Observe score 1).
func (s *Slave) Quality() map[string]core.DataQuality {
	_, monitors := s.owned()
	out := make(map[string]core.DataQuality, len(monitors))
	for comp, mon := range monitors {
		st := mon.Quality()
		out[comp] = core.DataQuality{Score: st.Score(), Stats: st}
	}
	return out
}

// Analyze runs abnormal change point selection locally for every monitored
// component (exported for in-process use and tests; the master normally
// triggers it over the wire).
func (s *Slave) Analyze(tv int64) []core.ComponentReport {
	return s.analyzeBudget(tv, 0, time.Time{})
}

// Connect dials an upstream (the master — or, in a tree topology, also an
// aggregator: each Connect call adds an independently managed link, and the
// slave answers analyze requests identically on all of them), registers, and
// starts serving in the background. The initial dial is synchronous so
// callers learn about a bad address immediately; afterwards a dropped
// connection is re-dialed with capped exponential backoff until Close.
func (s *Slave) Connect(addr string) error {
	return s.ConnectContext(context.Background(), addr)
}

// ConnectContext is Connect with a lifetime: canceling ctx stops this
// upstream's connection manager (including any in-progress backoff wait)
// exactly like Close, while leaving local collection and other upstreams
// running.
func (s *Slave) ConnectContext(ctx context.Context, addr string) error {
	peer, err := s.dialRegister(addr)
	if err != nil {
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	up := &upstream{addr: addr, cancel: cancel, peer: peer}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		peer.w.conn.Close()
		return fmt.Errorf("cluster: slave %s is closed", s.name)
	}
	s.ups = append(s.ups, up)
	s.mu.Unlock()
	s.notify(StateConnected, nil)
	s.wg.Add(1)
	go s.manageConn(cctx, up, peer)
	return nil
}

// dialRegister performs one dial + register handshake.
func (s *Slave) dialRegister(addr string) (*slaveConn, error) {
	conn, err := s.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: slave dial: %w", err)
	}
	components, _ := s.owned()
	peer := newPeer(addr, conn)
	reg := &envelope{Type: typeRegister, Slave: s.name, Components: components, Via: s.via}
	if err := peer.w.write(reg, 10*time.Second); err != nil {
		conn.Close()
		return nil, err
	}
	return peer, nil
}

func (s *Slave) notify(state ConnState, err error) {
	if log := s.obs.Logger(); log != nil {
		switch state {
		case StateDisconnected:
			log.Warn("master connection lost", "slave", s.name, "err", err)
		case StateReconnecting:
			log.Debug("reconnecting to master", "slave", s.name)
		default:
			log.Info("connection state changed", "slave", s.name, "state", state.String())
		}
	}
	_ = s.obs.EventJournal().Record("conn_state", map[string]any{"slave": s.name, "state": state.String()})
	if s.onState != nil {
		s.onState(state, err)
	}
}

// manageConn serves one upstream's current connection and, when it drops,
// re-dials with capped exponential backoff and ±50% jitter until ctx is
// canceled or Close is called.
func (s *Slave) manageConn(ctx context.Context, up *upstream, peer *slaveConn) {
	defer s.wg.Done()
	for {
		err := s.serveLoop(peer)
		peer.w.conn.Close()
		peer.failAll("cluster: upstream " + up.addr + " disconnected")
		s.mu.Lock()
		if up.peer == peer {
			up.peer = nil
		}
		closed := s.closed
		s.mu.Unlock()
		if closed || ctx.Err() != nil {
			s.notify(StateClosed, nil)
			return
		}
		s.notify(StateDisconnected, err)
		if !s.reconnect {
			return
		}
		next, ok := redial(ctx.Done(), s.backoffInitial, s.backoffMax, func() (*slaveConn, error) {
			s.notify(StateReconnecting, nil)
			next, err := s.dialRegister(up.addr)
			if err != nil {
				s.notify(StateDisconnected, err)
			}
			return next, err
		})
		if !ok {
			s.notify(StateClosed, nil)
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			next.w.conn.Close()
			s.notify(StateClosed, nil)
			return
		}
		up.peer = next
		s.mu.Unlock()
		peer = next
		s.notify(StateConnected, nil)
	}
}

// redial retries attempt until it succeeds, first waiting a delay that
// doubles per failure from initial up to max, each jittered ±50% so a
// recovering upstream is not hit by synchronized re-registration storms. It
// gives up when done closes.
func redial[T any](done <-chan struct{}, initial, max time.Duration, attempt func() (T, error)) (T, bool) {
	for delay := initial; ; delay = min(2*delay, max) {
		select {
		case <-done:
			var none T
			return none, false
		case <-time.After(jitter(delay)):
		}
		if next, err := attempt(); err == nil {
			return next, true
		}
	}
}

// jitter spreads d uniformly over [d/2, 3d/2] to avoid reconnect storms.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// serveLoop answers the master's requests until the connection fails; it
// returns the read error that ended it.
func (s *Slave) serveLoop(peer *slaveConn) error {
	w := peer.w
	r := newReader(w.conn)
	var delta core.ReplDelta // every replicate frame on this connection decodes into it
	for {
		env, err := readFrame(r)
		if err != nil {
			return err
		}
		switch env.Type {
		case typeAnalyze:
			// Analysis runs on its own goroutine so a long selection pass
			// cannot block pings (and get the slave evicted for missed
			// heartbeats) or serialize overlapping masters' requests.
			// serveLoop itself runs inside a wg-counted goroutine, so the
			// counter cannot hit zero while this Add races Close's Wait.
			s.wg.Add(1)
			go s.handleAnalyze(w, env)
		case typeAssign:
			s.wg.Add(1)
			go s.handleAssign(w, env)
		case typeReplicate:
			// Inline, not a goroutine: per-connection ordering is the only
			// thing serializing one component's deltas, and applying a few
			// replayed samples is far cheaper than an analyze pass.
			s.handleReplicate(w, env, &delta)
		case typeAck:
			// Relay ack for a replicate frame; floors already advanced
			// optimistically on send, so there is nothing to do.
		case typeError:
			// The only correlated requests a slave originates are replicate
			// frames; a codeReplFull response means the standby needs a full
			// resend, which forgetting the floors arranges next tick.
			if env.Code == codeReplFull && env.Component != "" {
				s.forgetFloors([]string{env.Component}, core.FullNAK)
			}
		case typePing:
			// Master-initiated liveness probe.
			if err := w.write(&envelope{Type: typePong, ID: env.ID}, 5*time.Second); err != nil {
				return err
			}
		case typePong:
			peer.resolve(env)
		default:
			resp := &envelope{Type: typeError, ID: env.ID, Err: fmt.Sprintf("unknown request %q", env.Type)}
			if err := w.write(resp, 10*time.Second); err != nil {
				return err
			}
		}
	}
}

// handleAssign installs the master's authoritative owned-component set: the
// sharded control plane decides placement centrally, and the slave follows —
// monitors appear for newly assigned components and disappear for components
// that moved away, which is what enforces per-slave ownership at Observe
// (feeding an unowned component errors with "does not monitor").
//
// A newly assigned component goes live on the shadow monitor replication has
// filled for it — standing by for a dead owner, or receiving a live donor's
// state during this rebalance, it is the same promotion. Without a shadow the
// slave cold-starts it through coldStart, the same path construction takes,
// which tries the component's checkpoint file — checkpoint names are
// per-component, not per-slave, so on shared checkpoint storage a dead
// donor's last checkpoint still follows its components to the new owner.
// An assign frame that carries only a ReplReset list assigns nothing: it
// asks for those components to be shipped now.
func (s *Slave) handleAssign(w *connWriter, env *envelope) {
	defer s.wg.Done()
	ack := &envelope{Type: typeAck, ID: env.ID}
	if len(env.ReplReset) > 0 && len(env.Components) == 0 && len(env.Shadow) == 0 {
		// A ship request, not a placement (which never resets what it does
		// not also assign): a rebalance is moving these components away and
		// waits for their state to reach the recipient, so ship the full
		// snapshots now, with or without a periodic tick configured. Shipping
		// before the ack is what tells the master that every frame this
		// request caused has reached it once the ack has.
		s.forgetFloors(env.ReplReset, core.FullReset)
		_, monitors := s.owned()
		s.ship(w, env.ReplReset, monitors)
		_ = w.write(ack, 10*time.Second)
		return
	}
	desired := make(map[string]bool, len(env.Components))
	for _, comp := range env.Components {
		desired[comp] = true
	}
	var added, removed, promoted []string
	adopt := make(map[string]*core.Monitor)
	for comp := range desired {
		s.mu.Lock()
		_, have := s.monitors.Load().byName[comp]
		shadow := s.shadows[comp]
		if !have && shadow != nil {
			// Warm promotion: the shadow monitor already holds the previous
			// owner's replicated state, so the component goes live in place —
			// no checkpoint read.
			delete(s.shadows, comp)
		}
		s.mu.Unlock()
		if have {
			continue
		}
		if shadow != nil {
			adopt[comp] = shadow
			added = append(added, comp)
			promoted = append(promoted, comp)
			continue
		}
		adopt[comp], _ = s.coldStart(comp)
		added = append(added, comp)
	}
	shadowSet := make(map[string]bool, len(env.Shadow))
	for _, comp := range env.Shadow {
		shadowSet[comp] = true
	}
	s.mu.Lock()
	monitors := maps.Clone(s.monitors.Load().byName)
	maps.Copy(monitors, adopt)
	for comp := range monitors {
		if !desired[comp] {
			delete(monitors, comp)
			removed = append(removed, comp)
		}
	}
	s.publish(monitors)
	// The shadow list is as authoritative as the owned list: shadows for
	// components we no longer stand by for — or now own — are dropped. New
	// shadow components need no monitor yet; the first relayed full snapshot
	// bootstraps one.
	for comp := range s.shadows {
		if !shadowSet[comp] || desired[comp] {
			delete(s.shadows, comp)
		}
	}
	total := len(monitors)
	s.mu.Unlock()
	sort.Strings(added)
	sort.Strings(removed)
	sort.Strings(promoted)
	for _, comp := range promoted {
		_ = s.obs.EventJournal().Record("replica_promoted", map[string]any{
			"slave": s.name, "component": comp})
	}
	if len(promoted) > 0 {
		s.obs.Registry().Counter("fchain_replica_promotions_total",
			"Shadow monitors promoted to live ownership.").Add(int64(len(promoted)))
	}
	if len(added) > 0 || len(removed) > 0 {
		s.obs.Logger().Info("assignment updated", "slave", s.name,
			"added", len(added), "removed", len(removed), "promoted", len(promoted), "total", total)
		_ = s.obs.EventJournal().Record("assign", map[string]any{
			"slave": s.name, "added": added, "removed": removed, "total": total})
	}
	// These components' standbys changed (or we just reconnected): forgetting
	// the floors makes the next replication tick re-ship a full snapshot even
	// when no new samples have arrived, which is the only way a quiet
	// component's new standby ever warms up.
	s.forgetFloors(env.ReplReset, core.FullReset)
	_ = w.write(ack, 10*time.Second)
}

// replChannel is the owner's side of one component's replication channel.
type replChannel struct {
	floors core.Floors
	seq    uint64
}

// forgetFloors makes the next ship of each named component a full snapshot,
// counted under cause unless its floors were already forgotten.
func (s *Slave) forgetFloors(comps []string, cause core.FullCause) {
	s.replMu.Lock()
	for _, comp := range comps {
		if ch := s.repl[comp]; ch != nil {
			ch.floors.Forget(cause)
		}
	}
	s.replMu.Unlock()
}

// slaveAnalyzeHook, when set, runs inside handleAnalyze after admission and
// before analysis. Tests inject panics here to exercise the handler-level
// recovery (kernel-level panics are injected via core.SetAnalyzeHook).
var slaveAnalyzeHook atomic.Pointer[func(slave string, tv int64)]

// handleAnalyze serves one analyze request: admission, budgeted analysis,
// reports frame. A panic anywhere in the handler is recovered into a
// structured error frame — one poisoned request must not take the daemon's
// connection (or the daemon) down.
func (s *Slave) handleAnalyze(w *connWriter, env *envelope) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.obs.Logger().Error("analyze handler panicked", "slave", s.name, "tv", env.TV, "panic", fmt.Sprint(r))
			s.obs.Registry().Counter("fchain_analyze_panics_total",
				"Analyze handlers that recovered a panic.").Inc()
			_ = s.obs.EventJournal().Record("analyze_panic", map[string]any{
				"slave": s.name, "tv": env.TV, "panic": fmt.Sprint(r)})
			_ = w.write(&envelope{Type: typeError, ID: env.ID, Code: codePanic,
				Err: fmt.Sprintf("slave %s: analyze panicked: %v", s.name, r)}, 10*time.Second)
		}
	}()

	// The master's BudgetMS restates its remaining deadline relative to this
	// frame's arrival, which lands the deadline in the slave's clock without
	// any offset arithmetic.
	var deadline time.Time
	if env.BudgetMS > 0 {
		deadline = time.Now().Add(time.Duration(env.BudgetMS) * time.Millisecond)
	}
	if !s.analyzeGate.tryAcquire() {
		s.obs.Registry().Counter("fchain_analyze_shed_total",
			"Analyze requests shed by slave admission control.").Inc()
		_ = s.obs.EventJournal().Record("analyze_shed", map[string]any{"slave": s.name, "tv": env.TV})
		_ = w.write(&envelope{Type: typeError, ID: env.ID, Code: codeOverloaded,
			Err:          fmt.Sprintf("slave %s overloaded", s.name),
			RetryAfterMS: retryAfter.Milliseconds()}, 10*time.Second)
		return
	}
	defer s.analyzeGate.release()
	if hook := slaveAnalyzeHook.Load(); hook != nil {
		(*hook)(s.name, env.TV)
	}
	reports := s.analyzeBudget(env.TV, env.LookBack, deadline)
	_ = w.write(&envelope{Type: typeReports, ID: env.ID, Reports: reports}, 30*time.Second)
}

// analyzeBudget analyzes every owned component's window ending at tv. A
// non-zero lookBack is the master's per-request override: the monitors retain
// RingCapacity samples, so any window up to that bound can be analyzed
// regardless of the slave's configured default. The per-metric selection
// tasks of all local components run on one bounded worker pool
// (cfg.Parallelism; collection keeps flowing meanwhile — analysis only
// briefly locks each metric shard while copying its history). Under a
// wall-clock deadline a selection task that starts after it is skipped and
// its report marked Truncated (zero deadline disables budgeting), and the
// truncation is accounted in the obs sink.
func (s *Slave) analyzeBudget(tv int64, lookBack int, deadline time.Time) []core.ComponentReport {
	names, byName := s.owned()
	monitors := make([]*core.Monitor, len(names))
	for i, name := range names {
		monitors[i] = byName[name]
	}
	reports, stats, tr := core.AnalyzeMonitorsDeadline(monitors, tv, lookBack, s.cfg.Parallelism, deadline, s.obs.TraceRing() != nil)
	s.obs.TraceRing().Add(tr)
	truncated := 0
	for _, rep := range reports {
		if rep.Truncated {
			truncated++
		}
	}
	if reg := s.obs.Registry(); reg != nil {
		reg.Counter("fchain_analyze_requests_total", "Analyze requests served.").Inc()
		reg.Counter("fchain_selection_tasks_total", "Per-metric selection tasks executed.").
			Add(int64(stats.Tasks))
		sel := stats.Select
		reg.Histogram("fchain_selection_latency_ns", "Abnormal change point selection latency.").
			Merge(sel)
		if truncated > 0 {
			reg.Counter("fchain_analyze_truncated_total",
				"Component analyses truncated by the deadline budget.").Add(int64(truncated))
		}
		if stats.Panics > 0 {
			reg.Counter("fchain_quarantine_trips_total",
				"Metric streams quarantined after selection kernel panics.").Add(int64(stats.Panics))
		}
	}
	if stats.Panics > 0 {
		streams := make(map[string]any)
		for _, rep := range reports {
			if len(rep.Quarantined) > 0 {
				streams[rep.Component] = rep.Quarantined
			}
		}
		_ = s.obs.EventJournal().Record("quarantine", map[string]any{
			"slave": s.name, "tv": tv, "panics": stats.Panics, "streams": streams,
			"panic": stats.FirstPanic,
		})
	}
	ev := map[string]any{
		"slave": s.name, "tv": tv, "lookback": lookBack, "reports": len(reports),
	}
	if truncated > 0 {
		ev["truncated"] = truncated
	}
	_ = s.obs.EventJournal().Record("analyze", ev)
	return reports
}

// Close terminates the slave's connection, stops reconnection and the
// checkpoint loop (after one final checkpoint), and waits for its
// goroutines.
func (s *Slave) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	for _, up := range s.ups {
		up.cancel()
		if up.peer != nil {
			_ = up.peer.w.conn.Close()
			up.peer = nil
		}
	}
	s.ups = nil
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.stop)
		if s.checkpointDir != "" {
			_ = s.CheckpointNow()
		}
	}
	s.wg.Wait()
	return nil
}
