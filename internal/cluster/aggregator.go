package cluster

// The aggregator tier turns the master's fan-in into a tree (master →
// aggregators → slaves): each aggregator accepts registrations from its own
// subtree of slaves, and answers the master's subtree analyze requests by
// fanning out to those slaves and merging their reports into per-slave
// sub-answers. The merge is lossless — each sub-answer carries the slave's
// own reports and answer latency — so the master's per-slave accounting
// (quorum, coverage, latency histograms) is unchanged by the tree. Slaves
// keep a direct master connection too; an aggregator dying mid-localization
// only costs the master a fallback to direct asks.

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"fchain/internal/obs"
)

// Aggregator is one mid-tier fan-in node. It is addressed by name: slaves
// register with it like they register with the master, and the master routes
// a subtree analyze to it for every slave whose register frame carried
// Via=name.
type Aggregator struct {
	name string

	dial           func(addr string) (net.Conn, error)
	backoffInitial time.Duration
	backoffMax     time.Duration
	obs            *obs.Sink

	ln net.Listener

	mu     sync.Mutex
	slaves map[string]*slaveConn
	upW    *connWriter
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// AggregatorOption configures an Aggregator.
type AggregatorOption func(*Aggregator)

// WithAggregatorDialer overrides how the aggregator dials the master; chaos
// tests inject fault-wrapped connections through this.
func WithAggregatorDialer(dial func(addr string) (net.Conn, error)) AggregatorOption {
	return func(a *Aggregator) { a.dial = dial }
}

// WithAggregatorBackoff overrides the upstream reconnect backoff bounds.
func WithAggregatorBackoff(initial, max time.Duration) AggregatorOption {
	return func(a *Aggregator) {
		if initial > 0 {
			a.backoffInitial = initial
		}
		if max > 0 {
			a.backoffMax = max
		}
	}
}

// WithAggregatorObs attaches an observability sink.
func WithAggregatorObs(sink *obs.Sink) AggregatorOption {
	return func(a *Aggregator) { a.obs = sink }
}

// NewAggregator creates an aggregator named name.
func NewAggregator(name string, opts ...AggregatorOption) *Aggregator {
	a := &Aggregator{
		name: name,
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		},
		backoffInitial: defaultBackoffInitial,
		backoffMax:     defaultBackoffMax,
		slaves:         make(map[string]*slaveConn),
		stop:           make(chan struct{}),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Start begins listening for subtree slave registrations on addr.
func (a *Aggregator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: aggregator listen: %w", err)
	}
	a.Serve(ln)
	return nil
}

// Serve starts the aggregator on an already-created listener (chaos tests
// inject fault-wrapped listeners this way).
func (a *Aggregator) Serve(ln net.Listener) {
	a.ln = ln
	a.wg.Add(1)
	go acceptPeers(ln, &a.wg, a.serveSlaveConn, func(r any) {
		a.obs.Logger().Error("aggregator connection handler panicked", "panic", fmt.Sprint(r))
	})
}

// Addr returns the slave-facing listening address, valid after Start.
func (a *Aggregator) Addr() string {
	if a.ln == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// Slaves returns the names of the subtree slaves currently registered,
// sorted.
func (a *Aggregator) Slaves() []string { return tierNames(&a.mu, a.slaves) }

// serveSlaveConn handles one subtree slave's connection: register, then
// route its responses to their pending asks.
func (a *Aggregator) serveSlaveConn(conn net.Conn) {
	defer conn.Close()
	r := newReader(conn)
	env, err := readFrame(r)
	if err != nil || env.Type != typeRegister || env.Slave == "" {
		return
	}
	sc := newPeer(env.Slave, conn)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	enroll(a.slaves, sc)
	a.mu.Unlock()
	a.obs.Logger().Info("subtree slave registered", "aggregator", a.name, "slave", sc.name)
	defer func() {
		a.mu.Lock()
		if a.slaves[sc.name] == sc {
			delete(a.slaves, sc.name)
		}
		a.mu.Unlock()
		a.obs.Logger().Warn("subtree slave disconnected", "aggregator", a.name, "slave", sc.name)
		sc.failAll(fmt.Sprintf("slave %s disconnected", sc.name))
	}()
	sc.serveFrames(r, nil)
}

// Connect dials the master, registers as an aggregator, and serves subtree
// analyze requests in the background, re-dialing with capped exponential
// backoff when the connection drops.
func (a *Aggregator) Connect(masterAddr string) error {
	w, err := a.dialRegister(masterAddr)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		w.conn.Close()
		return fmt.Errorf("cluster: aggregator %s is closed", a.name)
	}
	a.upW = w
	a.mu.Unlock()
	a.wg.Add(1)
	go a.manageUpstream(masterAddr, w)
	return nil
}

func (a *Aggregator) dialRegister(addr string) (*connWriter, error) {
	conn, err := a.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: aggregator dial: %w", err)
	}
	w := newConnWriter(conn)
	reg := &envelope{Type: typeRegister, Slave: a.name, Role: roleAggregator}
	if err := w.write(reg, 10*time.Second); err != nil {
		conn.Close()
		return nil, err
	}
	return w, nil
}

// manageUpstream serves the master connection and re-dials on failure until
// the aggregator closes.
func (a *Aggregator) manageUpstream(addr string, w *connWriter) {
	defer a.wg.Done()
	for {
		err := a.serveUpstream(w)
		w.conn.Close()
		a.mu.Lock()
		closed := a.closed
		a.mu.Unlock()
		if closed {
			return
		}
		a.obs.Logger().Warn("master connection lost", "aggregator", a.name, "err", err)
		next, ok := redial(a.stop, a.backoffInitial, a.backoffMax, func() (*connWriter, error) {
			return a.dialRegister(addr)
		})
		a.mu.Lock()
		if !ok || a.closed {
			a.mu.Unlock()
			if ok {
				next.conn.Close()
			}
			return
		}
		a.upW = next
		a.mu.Unlock()
		w = next
	}
}

// serveUpstream answers the master's requests until the connection fails.
func (a *Aggregator) serveUpstream(w *connWriter) error {
	r := newReader(w.conn)
	for {
		env, err := readFrame(r)
		if err != nil {
			return err
		}
		switch env.Type {
		case typeAnalyze:
			a.wg.Add(1)
			go a.handleSubtreeAnalyze(w, env)
		case typePing:
			if err := w.write(&envelope{Type: typePong, ID: env.ID}, 5*time.Second); err != nil {
				return err
			}
		default:
			resp := &envelope{Type: typeError, ID: env.ID, Err: fmt.Sprintf("unknown request %q", env.Type)}
			if err := w.write(resp, 10*time.Second); err != nil {
				return err
			}
		}
	}
}

// handleSubtreeAnalyze fans one analyze request out to the requested subtree
// slaves and answers with one sub-entry per slave, once every one has
// answered or the budget has ended. Slaves this aggregator has never seen —
// or that miss the budget — are answered as per-slave errors so the master
// can fall back to its direct connections for exactly those members.
func (a *Aggregator) handleSubtreeAnalyze(w *connWriter, env *envelope) {
	defer a.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			a.obs.Logger().Error("subtree analyze panicked", "aggregator", a.name, "panic", fmt.Sprint(r))
			_ = w.write(&envelope{Type: typeError, ID: env.ID, Code: codePanic,
				Err: fmt.Sprintf("aggregator %s: analyze panicked: %v", a.name, r)}, 10*time.Second)
		}
	}()
	budget := 30 * time.Second
	if env.BudgetMS > 0 {
		budget = time.Duration(env.BudgetMS) * time.Millisecond
	}
	deadline := time.Now().Add(budget)

	subs := make([]subAnswer, 0, len(env.Subtree))
	names := make([]string, 0, len(env.Subtree))
	results := make(chan subAnswer, len(env.Subtree))
	for _, name := range env.Subtree {
		a.mu.Lock()
		sc := a.slaves[name]
		a.mu.Unlock()
		if sc == nil {
			subs = append(subs, subAnswer{Slave: name,
				Err: fmt.Sprintf("cluster: slave %s not connected to aggregator %s", name, a.name)})
			continue
		}
		names = append(names, name)
		go func() { results <- a.askSubtreeSlave(sc, env.TV, env.LookBack, deadline) }()
	}
	subs = append(subs, gather(results, names, 0,
		func(s subAnswer) (string, bool) { return s.Slave, s.Err == "" },
		func(name string) subAnswer {
			return subAnswer{Slave: name, Err: fmt.Sprintf("cluster: slave %s: deadline exceeded", name)}
		}, deadline, a.stop)...)
	sort.Slice(subs, func(i, j int) bool { return subs[i].Slave < subs[j].Slave })
	a.obs.Registry().Counter("fchain_subtree_analyze_total", "Subtree analyze requests served.").Inc()
	_ = w.write(&envelope{Type: typeReports, ID: env.ID, Sub: subs}, 30*time.Second)
}

// askSubtreeSlave sends one analyze to a subtree slave and waits for its
// answer within the deadline, restating the remaining budget in the slave's
// clock exactly like the master does.
func (a *Aggregator) askSubtreeSlave(sc *slaveConn, tv int64, lookBack int, deadline time.Time) subAnswer {
	wait := time.Until(deadline)
	if wait <= 0 {
		return subAnswer{Slave: sc.name, Err: fmt.Sprintf("cluster: slave %s: deadline exceeded", sc.name)}
	}
	start := time.Now()
	req := &envelope{Type: typeAnalyze, TV: tv, LookBack: lookBack, BudgetMS: max(wait.Milliseconds(), 1)}
	env, err := sc.request(req, wait, a.stop)
	switch {
	case err == nil:
		return subAnswer{Slave: sc.name, Reports: env.Reports, WaitNS: time.Since(start).Nanoseconds()}
	case env != nil:
		return subAnswer{Slave: sc.name, Err: env.Err, Code: env.Code}
	default:
		return subAnswer{Slave: sc.name, Err: err.Error()}
	}
}

// Close shuts the aggregator down and waits for its goroutines.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.stop)
	}
	// Closing the upstream connection unblocks serveUpstream's pending read;
	// without it wg.Wait would deadlock against a healthy master link.
	if a.upW != nil {
		_ = a.upW.conn.Close()
	}
	for _, sc := range a.slaves {
		_ = sc.w.conn.Close()
	}
	a.mu.Unlock()
	var err error
	if a.ln != nil {
		err = a.ln.Close()
	}
	a.wg.Wait()
	return err
}
