package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"fchain/internal/core"
	"fchain/internal/obs"
	"fchain/internal/tenant"
)

// Service is the long-lived multi-tenant violation intake on top of a
// Master: instead of one ad-hoc Localize call per operator command, it
// accepts a continuous stream of SLO-violation events tagged (tenant, app,
// tv) — over the wire (violate frames) or in process (Submit) — and turns
// each into a localization of its own look-back window [tv-W, tv]:
//
//   - Per-tenant namespaces and token-bucket quotas (internal/tenant) shed a
//     flooding tenant's excess before any slave budget is spent, so a noisy
//     tenant cannot starve a quiet one. This layers on the master's
//     admission gate, which still bounds its total concurrency.
//   - A violation identical to an in-flight one — same tenant, app and tv —
//     joins it as a waiter: one cluster fan-out serves them all, and the
//     verdict fans back out. Any other violation leads its own
//     localization, so every verdict answers its own tv.
//   - Every accepted violation is write-ahead recorded in the obs journal
//     (violation_accepted), and every served verdict carries the sequence
//     numbers it covered (verdict_served). Replay reads the journal back
//     after a restart: served verdicts rebuild the master's history, and
//     accepted-but-unserved violations are re-run.
type Service struct {
	m       *Master
	tenants *tenant.Registry

	// localizeFn runs one cluster localization; tests override it to pin
	// timing and outcomes without a live slave fleet.
	localizeFn func(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error)

	mu       sync.Mutex
	flights  map[flightKey]*flight
	draining bool
	inflight int  // flights currently running (drain waits for zero)
	restored bool // history already rebuilt by a Replay this process
}

// ServiceConfig tunes a Service; zero values take the documented defaults.
type ServiceConfig struct {
	// Tenants lists the tenant names the service accepts. Empty leaves the
	// namespace open: any non-empty tenant name is admitted.
	Tenants []string
	// QuotaPerMinute is each tenant's violation budget: a token bucket
	// refilling at this many violations per minute and holding at most as
	// many; <= 0 is unlimited.
	QuotaPerMinute float64
}

// Sentinel errors surfaced by the service-mode intake. Use errors.Is; the
// tenant-layer sentinels (tenant.ErrUnknown, tenant.ErrQuota) pass through
// Submit unwrapped for the same purpose.
var (
	// ErrDraining: the service is shutting down and no longer admits
	// violations; in-flight localizations are still completing.
	ErrDraining = errors.New("cluster: service draining, violation rejected")
	// ErrNoService: the master has no service-mode intake attached (wire
	// clients only; Submit cannot return it).
	ErrNoService = errors.New("cluster: master has no violation service")
)

// NewService builds the service layer over master and attaches it, so
// violate frames arriving on the master's listener are routed to it. The
// master's observability sink supplies the journal (write-ahead record),
// metrics registry (per-tenant counters), and logger.
func NewService(m *Master, cfg ServiceConfig) *Service {
	s := &Service{
		m:       m,
		tenants: tenant.NewRegistry(cfg.Tenants, cfg.QuotaPerMinute),
		flights: make(map[flightKey]*flight),
	}
	s.localizeFn = s.m.localize
	m.attachService(s)
	return s
}

// Verdict is one served localization verdict. Diagnosis is the canonical
// JSON encoding of the core.Diagnosis — kept raw so the journal holds the
// exact bytes served.
type Verdict struct {
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	// TV is the violation time localized: always the submitted violation's
	// own tv.
	TV int64 `json:"tv"`
	// Seq is the journal sequence number of the verdict_served record.
	Seq int64 `json:"seq,omitempty"`
	// Source tells how the verdict was produced: "live" (a fresh cluster
	// localization led by this violation), "coalesced" (joined an identical
	// violation's in-flight localization), or "replay" (served during
	// journal replay after a restart).
	Source    string          `json:"source"`
	Degraded  bool            `json:"degraded,omitempty"`
	Diagnosis json.RawMessage `json:"diagnosis"`
}

// Decode unmarshals the verdict's raw diagnosis.
func (v *Verdict) Decode() (core.Diagnosis, error) {
	var d core.Diagnosis
	err := json.Unmarshal(v.Diagnosis, &d)
	return d, err
}

// String renders the verdict compactly for console output.
func (v *Verdict) String() string {
	d, err := v.Decode()
	if err != nil {
		return fmt.Sprintf("verdict %s/%s tv=%d [%s] <undecodable: %v>", v.Tenant, v.App, v.TV, v.Source, err)
	}
	mark := ""
	if v.Degraded {
		mark = " (degraded)"
	}
	return fmt.Sprintf("verdict %s/%s tv=%d [%s] %s%s", v.Tenant, v.App, v.TV, v.Source, d.String(), mark)
}

// flight is one in-progress localization that identical violations can join.
type flight struct {
	accepts []int64 // journal seqs of every violation this flight serves
	done    chan struct{}
	verdict *Verdict // set before done closes
	err     error
}

// flightKey identifies a violation: only identical violations share a
// flight.
type flightKey struct {
	tenant, app string
	tv          int64
}

// counter returns the per-tenant outcome counter; outcomes: accepted,
// coalesced, shed, replayed.
func (s *Service) counter(tenantName, outcome string) *obs.Counter {
	return s.m.obs.Registry().CounterWith("fchain_service_violations_total",
		"Service-mode violations by tenant and outcome.",
		map[string]string{"tenant": tenantName, "outcome": outcome})
}

// Submit feeds one SLO-violation event through the service: tenant admission
// (namespace + quota), write-ahead journaling, joining an identical
// in-flight violation, and — when this violation leads — a cluster
// localization at its tv. It blocks until the verdict is available or ctx
// expires. A canceled waiter returns ctx.Err() while the localization it
// joined keeps running (and still serves its journal record).
func (s *Service) Submit(ctx context.Context, tenantName, app string, tv int64) (*Verdict, error) {
	if app == "" {
		return nil, fmt.Errorf("cluster: violation needs an app name")
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.shed(tenantName, app, tv, "draining")
		return nil, ErrDraining
	}
	if err := s.tenants.Admit(tenantName); err != nil {
		switch {
		case errors.Is(err, tenant.ErrQuota):
			s.shed(tenantName, app, tv, "quota")
		default:
			s.shed(tenantName, app, tv, "unknown_tenant")
		}
		return nil, err
	}

	// Write-ahead record: from here on the violation is the service's
	// responsibility — a crash before its verdict_served record makes
	// replay re-run it.
	seq, err := s.m.obs.EventJournal().RecordSeq("violation_accepted",
		map[string]any{"tenant": tenantName, "app": app, "tv": tv})
	if err != nil {
		return nil, fmt.Errorf("cluster: journal violation: %w", err)
	}
	s.counter(tenantName, "accepted").Inc()
	return s.serve(ctx, flightKey{tenantName, app, tv}, seq, "live")
}

// serve answers one accepted violation: it joins the in-flight localization
// of an identical violation, or leads a fresh one whose verdict is journaled
// with the given source.
func (s *Service) serve(ctx context.Context, key flightKey, seq int64, source string) (*Verdict, error) {
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		f.accepts = append(f.accepts, seq)
		s.mu.Unlock()
		s.counter(key.tenant, "coalesced").Inc()
		_ = s.m.obs.EventJournal().Record("violation_coalesced",
			map[string]any{"tenant": key.tenant, "app": key.app, "tv": key.tv, "seq": seq})
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			v := *f.verdict
			v.Source = "coalesced"
			return &v, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// This violation leads a fresh localization.
	f := &flight{accepts: []int64{seq}, done: make(chan struct{})}
	s.flights[key] = f
	s.inflight++
	s.mu.Unlock()
	return s.lead(ctx, key, f, source)
}

// lead runs the localization for a flight and fans the outcome out: to the
// flight's waiters, the journal, and the caller.
func (s *Service) lead(ctx context.Context, key flightKey, f *flight, source string) (*Verdict, error) {
	tenantName, app, tv := key.tenant, key.app, key.tv
	res, err := s.localizeFn(ctx, tv, tenantName, app)

	s.mu.Lock()
	delete(s.flights, key)
	s.inflight--
	accepts := append([]int64(nil), f.accepts...)
	s.mu.Unlock()
	sort.Slice(accepts, func(i, j int) bool { return accepts[i] < accepts[j] })

	if err != nil {
		_ = s.m.obs.EventJournal().Record("verdict_failed", map[string]any{
			"tenant": tenantName, "app": app, "tv": tv, "accept_seqs": accepts, "err": err.Error()})
		s.m.obs.Logger().Warn("service localization failed", "tenant", tenantName, "app", app, "tv", tv, "err", err)
		f.err = err
		close(f.done)
		return nil, err
	}

	raw, merr := json.Marshal(res.Diagnosis)
	if merr != nil {
		f.err = merr
		close(f.done)
		return nil, fmt.Errorf("cluster: marshal diagnosis: %w", merr)
	}
	served, jerr := s.m.obs.EventJournal().RecordSeq("verdict_served", map[string]any{
		"tenant": tenantName, "app": app, "tv": tv,
		"source": source, "degraded": res.Degraded, "accept_seqs": accepts,
		"diagnosis": json.RawMessage(raw)})
	if jerr != nil {
		s.m.obs.Logger().Error("service verdict not journaled", "tenant", tenantName, "app", app, "err", jerr)
	}
	v := &Verdict{
		Tenant: tenantName, App: app, TV: tv, Seq: served,
		Source: source, Degraded: res.Degraded, Diagnosis: raw,
	}
	f.verdict = v
	close(f.done)
	return v, nil
}

// shed records one rejected violation (quota, unknown tenant, or draining).
func (s *Service) shed(tenantName, app string, tv int64, reason string) {
	s.counter(tenantName, "shed").Inc()
	_ = s.m.obs.EventJournal().Record("violation_shed",
		map[string]any{"tenant": tenantName, "app": app, "tv": tv, "reason": reason})
	s.m.obs.Logger().Warn("violation shed", "tenant", tenantName, "app", app, "tv", tv, "reason", reason)
}

// Drain stops admitting violations and waits up to timeout for in-flight
// localizations to complete, returning the number still running when it
// gave up (0 on a clean drain).
func (s *Service) Drain(timeout time.Duration) int {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		left := s.inflight
		s.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	// Events is how many journal events were scanned.
	Events int
	// HistoryRestored counts DiagnosisRecords rebuilt into Master.History.
	HistoryRestored int
	// Rerun counts accepted-but-unserved violations localized again.
	Rerun int
	// RerunFailed counts re-runs that failed (they stay pending: the next
	// replay retries them).
	RerunFailed int
}

// servedRecord is the verdict_served journal payload.
type servedRecord struct {
	Tenant     string          `json:"tenant"`
	App        string          `json:"app"`
	TV         int64           `json:"tv"`
	Source     string          `json:"source"`
	Degraded   bool            `json:"degraded"`
	AcceptSeqs []int64         `json:"accept_seqs"`
	Diagnosis  json.RawMessage `json:"diagnosis"`
}

// acceptedRecord is the violation_accepted journal payload.
type acceptedRecord struct {
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	TV     int64  `json:"tv"`
}

// Replay rebuilds service state from the journal after a restart: verdicts
// served before the crash rebuild the master's history, and violations that
// were accepted but never served are re-run now, under ctx, in acceptance
// order. Re-runs need registered slaves — a re-run that fails stays pending
// and is retried by the next replay.
func (s *Service) Replay(ctx context.Context) (ReplayStats, error) {
	var stats ReplayStats
	j := s.m.obs.EventJournal()
	if j.Path() == "" {
		return stats, fmt.Errorf("cluster: replay needs a journal")
	}
	events, err := obs.ReadJournal(j.Path())
	if err != nil && len(events) == 0 {
		return stats, fmt.Errorf("cluster: replay read journal: %w", err)
	}
	stats.Events = len(events)

	type pendingViolation struct {
		seq int64
		acceptedRecord
	}
	var pending []pendingViolation
	served := make(map[int64]bool) // accepted seqs some verdict covered
	var history []DiagnosisRecord
	for _, ev := range events {
		switch ev.Type {
		case "violation_accepted":
			var rec acceptedRecord
			if json.Unmarshal(ev.Data, &rec) != nil {
				continue
			}
			pending = append(pending, pendingViolation{seq: ev.Seq, acceptedRecord: rec})
		case "verdict_served":
			var rec servedRecord
			if json.Unmarshal(ev.Data, &rec) != nil {
				continue
			}
			for _, seq := range rec.AcceptSeqs {
				served[seq] = true
			}
			var diag core.Diagnosis
			if json.Unmarshal(rec.Diagnosis, &diag) == nil {
				history = append(history, DiagnosisRecord{
					TV: rec.TV, Tenant: rec.Tenant, App: rec.App,
					Diagnosis: diag, Degraded: rec.Degraded,
				})
			}
		}
	}
	if len(history) > historyLimit {
		history = history[len(history)-historyLimit:]
	}
	// Only the first replay of a process rebuilds history: a later `replay`
	// command (say, after slaves re-registered) must not duplicate records.
	s.mu.Lock()
	restored := s.restored
	s.restored = true
	s.mu.Unlock()
	if !restored {
		s.m.restoreHistory(history)
		stats.HistoryRestored = len(history)
	}

	// Re-run what was accepted but never served, oldest first.
	for _, p := range pending {
		if served[p.seq] {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		v, err := s.serve(ctx, flightKey{p.Tenant, p.App, p.TV}, p.seq, "replay")
		if err != nil {
			stats.RerunFailed++
			continue
		}
		if v.Source == "replay" {
			s.counter(p.Tenant, "replayed").Inc()
		}
		stats.Rerun++
	}
	s.m.obs.Logger().Info("service replay complete", "events", stats.Events,
		"history_restored", stats.HistoryRestored, "rerun", stats.Rerun, "rerun_failed", stats.RerunFailed)
	return stats, nil
}

// serveViolationConn serves one violation-client connection: the peer opened
// with a violate frame and streams more; each is answered by a verdict frame
// (or a structured error) correlated by ID. Requests are handled on their
// own goroutines so a slow localization does not serialize the stream.
func (m *Master) serveViolationConn(conn net.Conn, r *bufio.Reader, first *envelope) {
	w := newConnWriter(conn)
	m.obs.Logger().Debug("violation client connected", "remote", conn.RemoteAddr().String())
	env := first
	for {
		if env.Type == typeViolate {
			// Safe against Close's Wait for the same reason the slave's
			// analyze handler is: serveConn itself runs wg-counted.
			m.wg.Add(1)
			go func(env *envelope) {
				defer m.wg.Done()
				m.handleViolate(w, env)
			}(env)
		}
		var err error
		env, err = readFrame(r)
		if err != nil {
			return
		}
	}
}

// handleViolate answers one violate frame through the attached service.
func (m *Master) handleViolate(w *connWriter, env *envelope) {
	svc := m.service()
	if svc == nil {
		_ = w.write(&envelope{Type: typeError, ID: env.ID, Code: codeNoService,
			Err: ErrNoService.Error()}, 10*time.Second)
		return
	}
	timeout := m.localizeTO
	if env.BudgetMS > 0 {
		timeout = time.Duration(env.BudgetMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	v, err := svc.Submit(ctx, env.Tenant, env.App, env.TV)
	if err != nil {
		code := ""
		var retryAfterMS int64
		switch {
		case errors.Is(err, tenant.ErrUnknown):
			code = codeUnknownTenant
		case errors.Is(err, tenant.ErrQuota):
			code = codeQuota
		case errors.Is(err, ErrDraining):
			code = codeDraining
		case errors.Is(err, ErrOverloaded):
			code = codeOverloaded
			var oe *OverloadedError
			if errors.As(err, &oe) {
				retryAfterMS = oe.RetryAfter.Milliseconds()
			}
		}
		_ = w.write(&envelope{Type: typeError, ID: env.ID, Code: code, Err: err.Error(),
			RetryAfterMS: retryAfterMS}, 10*time.Second)
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		_ = w.write(&envelope{Type: typeError, ID: env.ID, Err: err.Error()}, 10*time.Second)
		return
	}
	_ = w.write(&envelope{Type: typeVerdict, ID: env.ID, Verdict: raw}, 30*time.Second)
}

// ServiceClient is the wire client for the service-mode intake: an SLO
// detector dials the master once and streams violate frames; responses are
// correlated by request ID, so Violate is safe to call concurrently.
type ServiceClient struct {
	peer *slaveConn
}

// DialService connects a violation client to a master.
func DialService(addr string) (*ServiceClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial service: %w", err)
	}
	c := &ServiceClient{peer: newPeer("service "+addr, conn)}
	go func() {
		c.peer.serveFrames(newReader(conn), nil)
		c.peer.failAll("cluster: service connection lost")
	}()
	return c, nil
}

// Violate submits one SLO violation and waits for its verdict. The caller's
// ctx deadline (when set) is shipped to the master as the localization
// budget. Structured error frames map back to the service sentinels:
// tenant.ErrUnknown, tenant.ErrQuota, ErrDraining, ErrOverloaded.
func (c *ServiceClient) Violate(ctx context.Context, tenantName, app string, tv int64) (*Verdict, error) {
	req := &envelope{Type: typeViolate, Tenant: tenantName, App: app, TV: tv}
	if dl, ok := ctx.Deadline(); ok {
		req.BudgetMS = max(time.Until(dl).Milliseconds(), 1)
	}
	// No timeout of its own: the master answers every violate frame, with a
	// verdict or an error, for as long as the connection lives.
	env, err := c.peer.request(req, 0, ctx.Done())
	switch {
	case errors.Is(err, errAborted):
		return nil, ctx.Err()
	case env != nil && env.Type == typeError:
		return nil, errorForCode(env.Code, env.Err, env.RetryAfterMS)
	case err != nil:
		return nil, err
	}
	var v Verdict
	if err := json.Unmarshal(env.Verdict, &v); err != nil {
		return nil, fmt.Errorf("cluster: malformed verdict: %w", err)
	}
	return &v, nil
}

// errorForCode maps a structured error frame back to a sentinel the caller
// can errors.Is against; an overload shed keeps its Retry-After hint, so
// errors.As(err, **OverloadedError) recovers the backoff duration.
func errorForCode(code, msg string, retryAfterMS int64) error {
	switch code {
	case codeUnknownTenant:
		return fmt.Errorf("%w: %s", tenant.ErrUnknown, msg)
	case codeQuota:
		return fmt.Errorf("%w: %s", tenant.ErrQuota, msg)
	case codeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	case codeOverloaded:
		if retryAfterMS > 0 {
			return &OverloadedError{RetryAfter: time.Duration(retryAfterMS) * time.Millisecond}
		}
		return fmt.Errorf("%w: %s", ErrOverloaded, msg)
	case codeNoService:
		return fmt.Errorf("%w: %s", ErrNoService, msg)
	}
	return errors.New(msg)
}

// Close tears the client connection down; in-flight Violate calls fail.
func (c *ServiceClient) Close() error { return c.peer.w.conn.Close() }
