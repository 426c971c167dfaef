package cluster

import (
	"bufio"
	"container/list"
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
// them into localizations durably and frugally:
//
//   - Per-tenant namespaces and token-bucket quotas (internal/tenant) shed a
//     flooding tenant's excess before any slave budget is spent, so a noisy
//     tenant cannot starve a quiet one. This layers on the PR 5 LIFO
//     admission gates, which still bound the master's total concurrency.
//   - Concurrent violations for the same (tenant, app) whose tv falls within
//     the coalesce window of an in-flight localization join it as waiters:
//     one cluster fan-out serves them all, and the verdict fans back out.
//   - Served verdicts land in an LRU cache keyed (tenant, app, tv-bucket)
//     with a TTL, so repeat violations re-serve the cached verdict without
//     re-asking the slaves.
//   - Every accepted violation is write-ahead recorded in the obs journal
//     (violation_accepted), and every served verdict carries the sequence
//     numbers it covered (verdict_served). Replay reads the journal back
//     after a restart: recent verdicts are re-served byte-identically from
//     the rebuilt cache, and accepted-but-unserved violations are re-run.
type Service struct {
	m       *Master
	tenants *tenant.Registry

	coalesceWindow int64
	cacheTTL       time.Duration

	clock func() time.Time

	// localizeFn runs one cluster localization; tests override it to pin
	// timing and outcomes without a live slave fleet.
	localizeFn func(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error)

	mu       sync.Mutex
	flights  map[string]*flight // key: tenant + "\x00" + app
	cache    *verdictCache
	draining bool
	inflight int  // flights currently running (drain waits for zero)
	restored bool // history already rebuilt by a Replay this process
}

// ServiceConfig tunes a Service; zero values take the documented defaults.
type ServiceConfig struct {
	// Tenants lists the tenant names the service accepts. Empty leaves the
	// namespace open: any non-empty tenant name is admitted.
	Tenants []string
	// QuotaPerMinute is each tenant's sustained violation budget
	// (violations per minute, token bucket); <= 0 is unlimited.
	QuotaPerMinute float64
	// QuotaBurst is the bucket capacity (back-to-back violations after an
	// idle stretch); <= 0 defaults to QuotaPerMinute.
	QuotaBurst float64
	// CoalesceWindow is the tv-space span (seconds) within which concurrent
	// violations for the same (tenant, app) share one localization, and the
	// bucket size of the verdict cache key; <= 0 defaults to 30.
	CoalesceWindow int64
	// CacheSize bounds the verdict LRU cache (entries); 0 defaults to 256,
	// negative disables caching.
	CacheSize int
	// CacheTTL is how long a cached verdict stays servable; <= 0 defaults
	// to 5 minutes.
	CacheTTL time.Duration
}

// Service-mode defaults.
const (
	defaultCoalesceWindow = int64(30)
	defaultCacheSize      = 256
	defaultCacheTTL       = 5 * time.Minute
)

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
	if cfg.CoalesceWindow <= 0 {
		cfg.CoalesceWindow = defaultCoalesceWindow
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = defaultCacheTTL
	}
	s := &Service{
		m:              m,
		tenants:        tenant.NewRegistry(cfg.Tenants, tenant.Quota{PerMinute: cfg.QuotaPerMinute, Burst: cfg.QuotaBurst}),
		coalesceWindow: cfg.CoalesceWindow,
		cacheTTL:       cfg.CacheTTL,
		clock:          time.Now,
		flights:        make(map[string]*flight),
		cache:          newVerdictCache(cfg.CacheSize),
	}
	s.localizeFn = s.m.localize
	m.attachService(s)
	return s
}

// SetClock overrides the service's time source (cache TTL and quota refill);
// tests pin it. It also pins the tenant registry's clock.
func (s *Service) SetClock(clock func() time.Time) {
	if clock == nil {
		return
	}
	s.mu.Lock()
	s.clock = clock
	s.mu.Unlock()
	s.tenants.SetClock(clock)
}

// Verdict is one served localization verdict. Diagnosis is the canonical
// JSON encoding of the core.Diagnosis — kept raw so a verdict re-served from
// the cache or from journal replay is byte-identical to the original.
type Verdict struct {
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	// TV is the violation time actually localized: for coalesced and cached
	// verdicts this is the leader's tv, which may differ from the submitted
	// tv by up to the coalesce window.
	TV     int64 `json:"tv"`
	Bucket int64 `json:"bucket"`
	// Seq is the journal sequence number of the verdict_served record.
	Seq int64 `json:"seq,omitempty"`
	// Source tells how the verdict was produced: "live" (a fresh cluster
	// localization led by this violation), "coalesced" (joined another
	// violation's in-flight localization), "cache" (re-served from the LRU
	// cache), or "replay" (served during journal replay after a restart).
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

// flight is one in-progress localization that concurrent violations for the
// same (tenant, app) can join.
type flight struct {
	tv      int64
	accepts []int64 // journal seqs of every violation this flight serves
	done    chan struct{}
	verdict *Verdict // set before done closes
	err     error
}

// flightKey namespaces in-flight localizations per (tenant, app).
func flightKey(tenantName, app string) string { return tenantName + "\x00" + app }

// bucketOf maps a violation time to its cache bucket.
func (s *Service) bucketOf(tv int64) int64 { return tv / s.coalesceWindow }

// counter returns the per-tenant outcome counter; outcomes: accepted,
// coalesced, cached, shed, replayed.
func (s *Service) counter(tenantName, outcome string) *obs.Counter {
	return s.m.obs.Registry().CounterWith("fchain_service_violations_total",
		"Service-mode violations by tenant and outcome.",
		map[string]string{"tenant": tenantName, "outcome": outcome})
}

// Submit feeds one SLO-violation event through the service: tenant admission
// (namespace + quota), write-ahead journaling, verdict cache, coalescing,
// and — when this violation leads — a cluster localization. It blocks until
// the verdict is available or ctx expires. A canceled waiter returns
// ctx.Err() while the localization it joined keeps running (and still serves
// its journal record).
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

	bucket := s.bucketOf(tv)
	key := flightKey(tenantName, app)
	s.mu.Lock()
	if ent, ok := s.cache.get(cacheKey(tenantName, app, bucket), s.clock()); ok {
		s.mu.Unlock()
		return s.serveFromCache(tenantName, app, tv, seq, ent, "cache")
	}
	if f, ok := s.flights[key]; ok && absDiff(tv, f.tv) <= s.coalesceWindow {
		f.accepts = append(f.accepts, seq)
		s.mu.Unlock()
		s.counter(tenantName, "coalesced").Inc()
		_ = s.m.obs.EventJournal().Record("violation_coalesced",
			map[string]any{"tenant": tenantName, "app": app, "tv": tv, "leader_tv": f.tv, "seq": seq})
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
	f := &flight{tv: tv, accepts: []int64{seq}, done: make(chan struct{})}
	s.flights[key] = f
	s.inflight++
	s.mu.Unlock()
	return s.lead(ctx, f, tenantName, app, tv, bucket, "live")
}

// lead runs the localization for a flight and fans the outcome out: to the
// flight's waiters, the verdict cache, the journal, and the caller.
func (s *Service) lead(ctx context.Context, f *flight, tenantName, app string, tv, bucket int64, source string) (*Verdict, error) {
	res, err := s.localizeFn(ctx, tv, tenantName, app)

	s.mu.Lock()
	if s.flights[flightKey(tenantName, app)] == f {
		delete(s.flights, flightKey(tenantName, app))
	}
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
		"tenant": tenantName, "app": app, "tv": tv, "bucket": bucket,
		"source": source, "degraded": res.Degraded, "accept_seqs": accepts,
		"diagnosis": json.RawMessage(raw)})
	if jerr != nil {
		s.m.obs.Logger().Error("service verdict not journaled", "tenant", tenantName, "app", app, "err", jerr)
	}
	v := &Verdict{
		Tenant: tenantName, App: app, TV: tv, Bucket: bucket, Seq: served,
		Source: source, Degraded: res.Degraded, Diagnosis: raw,
	}
	s.mu.Lock()
	s.cache.put(cacheKey(tenantName, app, bucket), &cacheEntry{
		tv: tv, seq: served, degraded: res.Degraded, raw: raw,
		expires: s.clock().Add(s.cacheTTL),
	})
	s.mu.Unlock()
	f.verdict = v
	close(f.done)
	return v, nil
}

// serveFromCache re-serves a cached verdict for one accepted violation,
// journaling a fresh verdict_served record (source "cache" or "replay") so
// accounting and replay stay exact.
func (s *Service) serveFromCache(tenantName, app string, tv, seq int64, ent *cacheEntry, source string) (*Verdict, error) {
	outcome := "cached"
	if source == "replay" {
		outcome = "replayed"
	}
	s.counter(tenantName, outcome).Inc()
	served, _ := s.m.obs.EventJournal().RecordSeq("verdict_served", map[string]any{
		"tenant": tenantName, "app": app, "tv": ent.tv, "bucket": s.bucketOf(ent.tv),
		"source": source, "degraded": ent.degraded, "accept_seqs": []int64{seq},
		"diagnosis": json.RawMessage(ent.raw)})
	return &Verdict{
		Tenant: tenantName, App: app, TV: ent.tv, Bucket: s.bucketOf(ent.tv), Seq: served,
		Source: source, Degraded: ent.degraded, Diagnosis: ent.raw,
	}, nil
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

// Tenants exposes the tenant registry state (sorted names).
func (s *Service) Tenants() []string { return s.tenants.Tenants() }

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	// Events is how many journal events were scanned.
	Events int
	// CacheRestored counts verdicts whose TTL had not lapsed and that were
	// put back in the cache, ready to re-serve byte-identically.
	CacheRestored int
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
	Bucket     int64           `json:"bucket"`
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
// served before the crash repopulate the cache (TTL honored against their
// journal timestamps) and the master's history; violations that were
// accepted but never served are re-run now, under ctx, in acceptance order.
// Re-runs need registered slaves — a re-run that fails stays pending and is
// retried by the next replay.
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
	pendingIdx := make(map[int64]int) // seq -> pending index (-1 once served)
	var history []DiagnosisRecord
	now := s.clock()
	for _, ev := range events {
		switch ev.Type {
		case "violation_accepted":
			var rec acceptedRecord
			if json.Unmarshal(ev.Data, &rec) != nil {
				continue
			}
			pendingIdx[ev.Seq] = len(pending)
			pending = append(pending, pendingViolation{seq: ev.Seq, acceptedRecord: rec})
		case "verdict_served":
			var rec servedRecord
			if json.Unmarshal(ev.Data, &rec) != nil {
				continue
			}
			for _, seq := range rec.AcceptSeqs {
				if i, ok := pendingIdx[seq]; ok && i >= 0 {
					pendingIdx[seq] = -1
				}
			}
			var diag core.Diagnosis
			if json.Unmarshal(rec.Diagnosis, &diag) == nil {
				history = append(history, DiagnosisRecord{
					TV: rec.TV, Tenant: rec.Tenant, App: rec.App,
					Diagnosis: diag, Degraded: rec.Degraded,
				})
			}
			expires := time.Unix(0, ev.TS).Add(s.cacheTTL)
			if expires.After(now) {
				s.mu.Lock()
				s.cache.put(cacheKey(rec.Tenant, rec.App, rec.Bucket), &cacheEntry{
					tv: rec.TV, seq: ev.Seq, degraded: rec.Degraded,
					raw: rec.Diagnosis, expires: expires,
				})
				s.mu.Unlock()
				stats.CacheRestored++
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

	// Re-run what was accepted but never served, oldest first. Each re-run
	// first checks the cache: an entry restored above (or produced by an
	// earlier re-run) may already cover the violation's bucket.
	for _, p := range pending {
		if pendingIdx[p.seq] < 0 {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		bucket := s.bucketOf(p.TV)
		s.mu.Lock()
		ent, ok := s.cache.get(cacheKey(p.Tenant, p.App, bucket), s.clock())
		s.mu.Unlock()
		if ok {
			if _, err := s.serveFromCache(p.Tenant, p.App, p.TV, p.seq, ent, "replay"); err == nil {
				stats.Rerun++
				continue
			}
		}
		s.mu.Lock()
		f := &flight{tv: p.TV, accepts: []int64{p.seq}, done: make(chan struct{})}
		s.flights[flightKey(p.Tenant, p.App)] = f
		s.inflight++
		s.mu.Unlock()
		if _, err := s.lead(ctx, f, p.Tenant, p.App, p.TV, bucket, "replay"); err != nil {
			stats.RerunFailed++
			continue
		}
		s.counter(p.Tenant, "replayed").Inc()
		stats.Rerun++
	}
	s.m.obs.Logger().Info("service replay complete",
		"events", stats.Events, "cache_restored", stats.CacheRestored,
		"history_restored", stats.HistoryRestored, "rerun", stats.Rerun, "rerun_failed", stats.RerunFailed)
	return stats, nil
}

// absDiff is |a-b| without overflow drama for realistic tvs.
func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// cacheKey renders the LRU key for (tenant, app, tv-bucket).
func cacheKey(tenantName, app string, bucket int64) string {
	return fmt.Sprintf("%s\x00%s\x00%d", tenantName, app, bucket)
}

// cacheEntry is one cached verdict.
type cacheEntry struct {
	tv       int64
	seq      int64
	degraded bool
	raw      json.RawMessage
	expires  time.Time
}

// verdictCache is a TTL'd LRU of served verdicts. Callers synchronize (the
// service guards it with its own mutex).
type verdictCache struct {
	cap     int
	order   *list.List // front = most recent
	entries map[string]*list.Element
}

type cacheItem struct {
	key string
	ent *cacheEntry
}

// newVerdictCache returns a cache holding up to cap entries; cap < 0
// disables caching (every get misses, every put is dropped).
func newVerdictCache(cap int) *verdictCache {
	if cap < 0 {
		return &verdictCache{cap: -1}
	}
	return &verdictCache{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

func (c *verdictCache) get(key string, now time.Time) (*cacheEntry, bool) {
	if c.cap < 0 {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	item := el.Value.(*cacheItem)
	if !item.ent.expires.After(now) {
		c.order.Remove(el)
		delete(c.entries, key)
		return nil, false
	}
	c.order.MoveToFront(el)
	return item.ent, true
}

func (c *verdictCache) put(key string, ent *cacheEntry) {
	if c.cap < 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheItem).ent = ent
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheItem{key: key, ent: ent})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheItem).key)
	}
}

// len reports live entries (expired ones count until evicted by get).
func (c *verdictCache) len() int {
	if c.cap < 0 {
		return 0
	}
	return c.order.Len()
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
