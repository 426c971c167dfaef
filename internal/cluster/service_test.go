package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fchain/internal/core"
	"fchain/internal/obs"
	"fchain/internal/tenant"
)

// serviceHarness is a Service over a journaling sink with the cluster
// fan-out replaced by a controllable fake, so service-layer behavior
// (coalescing, quotas, replay) is tested without a slave fleet.
type serviceHarness struct {
	svc     *Service
	master  *Master
	sink    *obs.Sink
	journal string
	calls   atomic.Int64 // fake localizations started
}

func newServiceHarness(t *testing.T, journalPath string, cfg ServiceConfig) *serviceHarness {
	t.Helper()
	if journalPath == "" {
		journalPath = filepath.Join(t.TempDir(), "journal.jsonl")
	}
	sink, err := obs.NewSink(io.Discard, "error", journalPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.EventJournal().Close() })
	h := &serviceHarness{
		master:  NewMaster(core.Config{}, nil, WithMasterObs(sink)),
		sink:    sink,
		journal: journalPath,
	}
	h.svc = NewService(h.master, cfg)
	h.svc.localizeFn = h.fakeLocalize
	return h
}

// fakeDiagnosis is the deterministic diagnosis fakeLocalize returns for tv.
func fakeDiagnosis(tv int64) core.Diagnosis {
	return core.Diagnosis{Culprits: []core.Culprit{{
		Component: "db", Onset: tv - 3, Reason: "source", Confidence: 1,
	}}}
}

// fakeLocalize produces a deterministic diagnosis derived from tv, so tests
// can tell which tv a verdict was computed for.
func (h *serviceHarness) fakeLocalize(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
	h.calls.Add(1)
	return core.LocalizeResult{Diagnosis: fakeDiagnosis(tv)}, nil
}

// TestServiceCoalescingBoundaries drives the coalescing decision: a
// follower joins an in-flight localization only when it is identical to the
// leader — same tenant, app and tv. A tv one second either side, another app
// or another tenant leads its own.
func TestServiceCoalescingBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		tenant2  string
		app2     string
		tvDelta  int64
		coalesce bool
	}{
		{"same tv", "t1", "shop", 0, true},
		{"one second later", "t1", "shop", 1, false},
		{"one second earlier", "t1", "shop", -1, false},
		{"different app", "t1", "billing", 0, false},
		{"different tenant", "t2", "shop", 0, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newServiceHarness(t, "", ServiceConfig{})
			block := make(chan struct{})
			started := make(chan struct{}, 4)
			h.svc.localizeFn = func(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
				started <- struct{}{}
				<-block
				return h.fakeLocalize(ctx, tv, tenantName, app)
			}
			// Fresh tv range per case so nothing carries across subtests.
			leaderTV := int64(10000 * (i + 1))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			type outcome struct {
				v   *Verdict
				err error
			}
			leadCh := make(chan outcome, 1)
			go func() {
				v, err := h.svc.Submit(ctx, "t1", "shop", leaderTV)
				leadCh <- outcome{v, err}
			}()
			<-started // leader's localization is in flight

			followCh := make(chan outcome, 1)
			go func() {
				v, err := h.svc.Submit(ctx, tc.tenant2, tc.app2, leaderTV+tc.tvDelta)
				followCh <- outcome{v, err}
			}()
			if tc.coalesce {
				select {
				case <-started:
					t.Error("follower started its own localization, want coalesced")
				case <-time.After(100 * time.Millisecond):
				}
			} else {
				select {
				case <-started:
				case <-time.After(2 * time.Second):
					t.Error("follower never started its own localization")
				}
			}
			close(block)
			lead, follow := <-leadCh, <-followCh
			if lead.err != nil || follow.err != nil {
				t.Fatalf("submit errors: leader=%v follower=%v", lead.err, follow.err)
			}
			if lead.v.Source != "live" {
				t.Errorf("leader source = %q, want live", lead.v.Source)
			}
			if follow.v.TV != leaderTV+tc.tvDelta {
				t.Errorf("follower verdict tv = %d, want its own %d", follow.v.TV, leaderTV+tc.tvDelta)
			}
			if tc.coalesce {
				if follow.v.Source != "coalesced" {
					t.Errorf("follower source = %q, want coalesced", follow.v.Source)
				}
				if !bytes.Equal(follow.v.Diagnosis, lead.v.Diagnosis) {
					t.Error("coalesced diagnosis differs from leader's")
				}
				if got := h.calls.Load(); got != 1 {
					t.Errorf("localizations = %d, want 1 (shared)", got)
				}
			} else {
				if follow.v.Source != "live" {
					t.Errorf("follower source = %q, want live", follow.v.Source)
				}
				if got := h.calls.Load(); got != 2 {
					t.Errorf("localizations = %d, want 2 (independent)", got)
				}
			}
		})
	}
}

// TestServiceAnswersItsOwnTV submits violations five seconds apart, once in
// sequence and once concurrently: every verdict carries its own tv and the
// diagnosis computed for that tv, never a neighbour's. Two concurrent
// identical violations still share one localization.
func TestServiceAnswersItsOwnTV(t *testing.T) {
	h := newServiceHarness(t, "", ServiceConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	checkOwn := func(v *Verdict, tv int64) {
		t.Helper()
		want, err := json.Marshal(fakeDiagnosis(tv))
		if err != nil {
			t.Fatal(err)
		}
		if v.TV != tv {
			t.Errorf("verdict for tv=%d carries tv=%d (source %s)", tv, v.TV, v.Source)
		}
		if !bytes.Equal(v.Diagnosis, want) {
			t.Errorf("verdict for tv=%d diagnosis = %s, want %s", tv, v.Diagnosis, want)
		}
	}

	// In sequence: the second violation localizes again.
	for _, tv := range []int64{1000, 1005} {
		v, err := h.svc.Submit(ctx, "t1", "shop", tv)
		if err != nil {
			t.Fatal(err)
		}
		if v.Source != "live" {
			t.Errorf("sequential tv=%d source = %q, want live", tv, v.Source)
		}
		checkOwn(v, tv)
	}
	if got := h.calls.Load(); got != 2 {
		t.Errorf("sequential localizations = %d, want 2", got)
	}

	// Concurrently: tv and tv+5 lead their own flights; a duplicate of tv
	// joins tv's flight.
	h.calls.Store(0)
	block := make(chan struct{})
	started := make(chan int64, 2) // one send per localization: tv and tv+5
	h.svc.localizeFn = func(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
		started <- tv
		<-block
		return h.fakeLocalize(ctx, tv, tenantName, app)
	}
	type result struct {
		tv  int64
		v   *Verdict
		err error
	}
	results := make(chan result, 3)
	submit := func(tv int64) {
		go func() {
			v, err := h.svc.Submit(ctx, "t1", "shop", tv)
			results <- result{tv, v, err}
		}()
	}
	submit(2000)
	<-started
	submit(2005)
	submit(2000)
	select {
	case tv := <-started:
		if tv != 2005 {
			t.Errorf("second localization ran tv=%d, want 2005", tv)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tv=2005 never started its own localization")
	}
	for h.svc.counter("t1", "coalesced").Value() < 1 {
		if ctx.Err() != nil {
			t.Fatal("duplicate tv=2000 never joined the in-flight localization")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	sources := make(map[string]int)
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("tv=%d: %v", r.tv, r.err)
		}
		checkOwn(r.v, r.tv)
		sources[fmt.Sprintf("%d/%s", r.tv, r.v.Source)]++
	}
	if sources["2000/live"] != 1 || sources["2000/coalesced"] != 1 || sources["2005/live"] != 1 {
		t.Errorf("verdicts by tv/source = %v, want one each of 2000/live, 2000/coalesced, 2005/live", sources)
	}
	if got := h.calls.Load(); got != 2 {
		t.Errorf("concurrent localizations = %d, want 2 (the duplicate shares one)", got)
	}
}

// TestServiceWaiterCancellation cancels a coalesced waiter mid-flight: the
// waiter unblocks with its context error, the leader's localization keeps
// running, and its verdict_served journal record still covers the canceled
// waiter's accepted sequence number.
func TestServiceWaiterCancellation(t *testing.T) {
	h := newServiceHarness(t, "", ServiceConfig{})
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	h.svc.localizeFn = func(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
		started <- struct{}{}
		<-block
		return h.fakeLocalize(ctx, tv, tenantName, app)
	}
	leadCh := make(chan error, 1)
	go func() {
		_, err := h.svc.Submit(context.Background(), "t1", "shop", 1000)
		leadCh <- err
	}()
	<-started

	waitCtx, cancelWaiter := context.WithCancel(context.Background())
	waitCh := make(chan error, 1)
	go func() {
		_, err := h.svc.Submit(waitCtx, "t1", "shop", 1000)
		waitCh <- err
	}()
	// The waiter must be coalesced (no second localization) before we
	// cancel it.
	select {
	case <-started:
		t.Fatal("waiter was not coalesced")
	case <-time.After(100 * time.Millisecond):
	}
	cancelWaiter()
	select {
	case err := <-waitCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not unblock")
	}

	close(block)
	if err := <-leadCh; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	// The leader's verdict record still covers both accepted seqs, so a
	// replay would not re-run the canceled waiter's violation.
	events, err := obs.ReadJournal(h.journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Type != "verdict_served" {
			continue
		}
		var rec servedRecord
		if err := json.Unmarshal(ev.Data, &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.AcceptSeqs) != 2 {
			t.Errorf("verdict_served covers %v, want both accepted seqs", rec.AcceptSeqs)
		}
		return
	}
	t.Error("no verdict_served event journaled")
}

// TestServiceQuotaFairness floods one tenant and drips another: the flooder
// is shed down to its token bucket, the quiet tenant succeeds at p100.
func TestServiceQuotaFairness(t *testing.T) {
	h := newServiceHarness(t, "", ServiceConfig{
		Tenants:        []string{"loud", "quiet"},
		QuotaPerMinute: 5,
	})
	now := time.Unix(90_000, 0)
	h.svc.SetClock(func() time.Time { return now }) // static: no refill
	ctx := context.Background()

	admitted, shed := 0, 0
	for i := int64(0); i < 50; i++ {
		_, err := h.svc.Submit(ctx, "loud", "shop", 1000+100*i)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, tenant.ErrQuota):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if admitted != 5 || shed != 45 {
		t.Errorf("loud tenant: admitted=%d shed=%d, want 5/45", admitted, shed)
	}
	for i := int64(0); i < 5; i++ {
		if _, err := h.svc.Submit(ctx, "quiet", "web", 2000+100*i); err != nil {
			t.Errorf("quiet tenant violation %d shed while flooder saturated: %v", i, err)
		}
	}
	if got := h.svc.counter("quiet", "shed").Value(); got != 0 {
		t.Errorf("quiet shed counter = %d, want 0", got)
	}
	if got := h.svc.counter("loud", "shed").Value(); got != 45 {
		t.Errorf("loud shed counter = %d, want 45", got)
	}
	if _, err := h.svc.Submit(ctx, "stranger", "web", 1); !errors.Is(err, tenant.ErrUnknown) {
		t.Errorf("outsider tenant error = %v, want ErrUnknown", err)
	}
}

// TestServiceReplay crashes a service after one served verdict and one
// accepted-but-failed violation, then replays the journal in a fresh
// process: history is restored from the served verdict and exactly the
// failed violation's seq is re-run.
func TestServiceReplay(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")

	// First life: appA serves, appB's localization dies before a verdict.
	h1 := newServiceHarness(t, journalPath, ServiceConfig{})
	if _, err := h1.svc.Submit(context.Background(), "t1", "appA", 1000); err != nil {
		t.Fatal(err)
	}
	h1.svc.localizeFn = func(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
		return core.LocalizeResult{}, errors.New("slave fleet lost")
	}
	if _, err := h1.svc.Submit(context.Background(), "t1", "appB", 2000); err == nil {
		t.Fatal("appB submit should have failed")
	}
	if err := h1.sink.EventJournal().Close(); err != nil { // "crash"
		t.Fatal(err)
	}
	appBSeq := acceptedSeq(t, journalPath, "appB")

	// Second life over the same journal.
	h2 := newServiceHarness(t, journalPath, ServiceConfig{})
	stats, err := h2.svc.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rerun != 1 || stats.RerunFailed != 0 {
		t.Errorf("Rerun = %d (failed %d), want 1 rerun of appB", stats.Rerun, stats.RerunFailed)
	}
	if stats.HistoryRestored != 1 {
		t.Errorf("HistoryRestored = %d, want 1", stats.HistoryRestored)
	}
	hist := h2.master.History()
	if len(hist) != 1 || hist[0].App != "appA" || hist[0].Tenant != "t1" || hist[0].TV != 1000 {
		t.Errorf("restored history = %+v, want the appA tv=1000 record", hist)
	}
	if h2.calls.Load() != 1 { // only appB's re-run localized
		t.Errorf("second life localizations = %d, want 1", h2.calls.Load())
	}
	// appB's re-run was journaled as a replay-sourced verdict covering its
	// seq, so a third replay would find nothing pending.
	assertReplayServed(t, journalPath, appBSeq, 2000)

	// A second replay in the same process re-runs nothing and must not
	// duplicate history.
	stats2, err := h2.svc.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Rerun != 0 || stats2.RerunFailed != 0 {
		t.Errorf("second replay re-ran %d (+%d failed), want 0", stats2.Rerun, stats2.RerunFailed)
	}
	if got := len(h2.master.History()); got != 1 {
		t.Errorf("history after double replay = %d records, want 1", got)
	}
}

// TestServiceReplaysParentJournal replays a journal written before verdicts
// were tied to their own tv. It holds a live verdict with a cache bucket, a
// cache-sourced verdict, a violation_coalesced record with the leader's tv,
// and one accepted violation whose localization failed. Replay restores the
// same three history records the older code restored and re-runs exactly the
// unserved seq.
func TestServiceReplaysParentJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_service_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(journalPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	unserved := acceptedSeq(t, journalPath, "billing")

	h := newServiceHarness(t, journalPath, ServiceConfig{})
	stats, err := h.svc.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := ReplayStats{Events: 10, HistoryRestored: 3, Rerun: 1}
	if stats != want {
		t.Errorf("replay stats = %+v, want %+v", stats, want)
	}
	if got := h.calls.Load(); got != 1 {
		t.Errorf("localizations = %d, want 1 (the unserved seq only)", got)
	}
	assertReplayServed(t, journalPath, unserved, 3000)
}

// acceptedSeq returns the journal seq of the one violation_accepted record
// for app.
func acceptedSeq(t *testing.T, journalPath, app string) int64 {
	t.Helper()
	events, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		var rec acceptedRecord
		if ev.Type == "violation_accepted" && json.Unmarshal(ev.Data, &rec) == nil && rec.App == app {
			return ev.Seq
		}
	}
	t.Fatalf("no violation_accepted record for app %q", app)
	return 0
}

// assertReplayServed checks that the journal holds exactly one replay-sourced
// verdict, covering exactly seq, at tv.
func assertReplayServed(t *testing.T, journalPath string, seq, tv int64) {
	t.Helper()
	events, err := obs.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	var replays []servedRecord
	for _, ev := range events {
		var rec servedRecord
		if ev.Type == "verdict_served" && json.Unmarshal(ev.Data, &rec) == nil && rec.Source == "replay" {
			replays = append(replays, rec)
		}
	}
	if len(replays) != 1 {
		t.Fatalf("replay-sourced verdict_served events = %d, want 1", len(replays))
	}
	if r := replays[0]; len(r.AcceptSeqs) != 1 || r.AcceptSeqs[0] != seq || r.TV != tv {
		t.Errorf("replay verdict covers seqs %v at tv=%d, want [%d] at tv=%d", r.AcceptSeqs, r.TV, seq, tv)
	}
}

// TestServiceWireProtocol drives the violate/verdict frames over real TCP:
// verdicts round-trip, and namespace/quota/drain rejections map back to the
// service sentinels through errors.Is.
func TestServiceWireProtocol(t *testing.T) {
	h := newServiceHarness(t, "", ServiceConfig{
		Tenants:        []string{"t1"},
		QuotaPerMinute: 2,
	})
	now := time.Unix(80_000, 0)
	h.svc.SetClock(func() time.Time { return now })
	if err := h.master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer h.master.Close()
	client, err := DialService(h.master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	v, err := client.Violate(ctx, "t1", "shop", 1000)
	if err != nil {
		t.Fatalf("violate: %v", err)
	}
	if v.Source != "live" || v.Tenant != "t1" || v.App != "shop" {
		t.Errorf("verdict = %+v, want live t1/shop", v)
	}
	if d, err := v.Decode(); err != nil || len(d.Culprits) != 1 || d.Culprits[0].Component != "db" {
		t.Errorf("decoded diagnosis = %+v (err %v), want db culprit", d, err)
	}

	if _, err := client.Violate(ctx, "nobody", "shop", 1000); !errors.Is(err, tenant.ErrUnknown) {
		t.Errorf("unknown tenant error = %v, want ErrUnknown", err)
	}
	// Bucket of 2: one token left, then quota.
	if _, err := client.Violate(ctx, "t1", "shop", 5000); err != nil {
		t.Fatalf("second violation: %v", err)
	}
	if _, err := client.Violate(ctx, "t1", "shop", 9000); !errors.Is(err, tenant.ErrQuota) {
		t.Errorf("over-quota error = %v, want ErrQuota", err)
	}
	if left := h.svc.Drain(time.Second); left != 0 {
		t.Errorf("drain left %d in flight", left)
	}
	now = now.Add(time.Hour) // refill tokens: rejection must be the drain, not quota
	if _, err := client.Violate(ctx, "t1", "shop", 13000); !errors.Is(err, ErrDraining) {
		t.Errorf("draining error = %v, want ErrDraining", err)
	}
}

// TestMasterWithoutServiceRejectsViolations checks the wire answer when no
// Service is attached.
func TestMasterWithoutServiceRejectsViolations(t *testing.T) {
	m := NewMaster(core.Config{}, nil)
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	client, err := DialService(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Violate(ctx, "t1", "shop", 1000); !errors.Is(err, ErrNoService) {
		t.Errorf("no-service error = %v, want ErrNoService", err)
	}
}

// TestServiceSoak hammers the service from 12 tenants concurrently (flooding
// and quiet mixed), then reconciles the per-tenant counters against the
// write-ahead journal exactly: every accepted violation is covered by
// exactly one verdict, shed/coalesced counts match their journal events one
// for one, and no goroutines leak. Each (app, tv) is submitted twice, so
// identical violations overlap and coalesce. Run with -race.
func TestServiceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	baseline := runtime.NumGoroutine()
	h := newServiceHarness(t, "", ServiceConfig{
		QuotaPerMinute: 10,
	})
	now := time.Unix(100_000, 0)
	h.svc.SetClock(func() time.Time { return now }) // static: no refill, exactly 10 admitted
	h.svc.localizeFn = func(ctx context.Context, tv int64, tenantName, app string) (core.LocalizeResult, error) {
		time.Sleep(time.Millisecond) // keep flights overlapping
		return h.fakeLocalize(ctx, tv, tenantName, app)
	}

	const tenants = 12
	apps := []string{"shop", "billing", "search"}
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	submissions := make([]int, tenants)
	for ti := 0; ti < tenants; ti++ {
		n := 30
		if ti == tenants-1 {
			n = 5 // the quiet tenant stays under its quota
		}
		submissions[ti] = n
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(ti, i int) {
				defer wg.Done()
				tenantName := fmt.Sprintf("tenant-%02d", ti)
				app := apps[(i/2)%len(apps)]
				tv := int64(1000 + 10*(i/2))
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_, err := h.svc.Submit(ctx, tenantName, app, tv)
				if err != nil && !errors.Is(err, tenant.ErrQuota) {
					t.Errorf("tenant %s violation %d: %v", tenantName, i, err)
					unexpected.Add(1)
				}
			}(ti, i)
		}
	}
	wg.Wait()

	events, err := obs.ReadJournal(h.journal)
	if err != nil {
		t.Fatal(err)
	}
	type tally struct{ accepted, shed, coalesced, servedSeqs int }
	byTenant := make(map[string]*tally)
	get := func(name string) *tally {
		if byTenant[name] == nil {
			byTenant[name] = &tally{}
		}
		return byTenant[name]
	}
	seqOwner := make(map[int64]string) // accepted seq -> tenant
	coveredSeqs := make(map[int64]int) // accepted seq -> times served
	for _, ev := range events {
		var data struct {
			Tenant     string  `json:"tenant"`
			AcceptSeqs []int64 `json:"accept_seqs"`
		}
		if err := json.Unmarshal(ev.Data, &data); err != nil {
			continue
		}
		switch ev.Type {
		case "violation_accepted":
			get(data.Tenant).accepted++
			seqOwner[ev.Seq] = data.Tenant
		case "violation_shed":
			get(data.Tenant).shed++
		case "violation_coalesced":
			get(data.Tenant).coalesced++
		case "verdict_served":
			for _, seq := range data.AcceptSeqs {
				coveredSeqs[seq]++
				get(seqOwner[seq]).servedSeqs++
			}
		case "verdict_failed":
			t.Errorf("unexpected verdict_failed event: %s", ev.Data)
		}
	}

	total := 0
	for ti := 0; ti < tenants; ti++ {
		name := fmt.Sprintf("tenant-%02d", ti)
		tl := get(name)
		total += submissions[ti]
		// Counters must reconcile with the journal exactly.
		for outcome, journaled := range map[string]int{
			"accepted":  tl.accepted,
			"shed":      tl.shed,
			"coalesced": tl.coalesced,
		} {
			if got := h.svc.counter(name, outcome).Value(); got != int64(journaled) {
				t.Errorf("%s: counter %s = %d, journal says %d", name, outcome, got, journaled)
			}
		}
		if tl.accepted+tl.shed != submissions[ti] {
			t.Errorf("%s: accepted %d + shed %d != %d submitted", name, tl.accepted, tl.shed, submissions[ti])
		}
		if tl.servedSeqs != tl.accepted {
			t.Errorf("%s: %d accepted seqs but %d covered by verdicts", name, tl.accepted, tl.servedSeqs)
		}
		// Fair shedding: the static clock makes each bucket exactly its
		// quota, so flooders shed all but 10 and the quiet tenant sheds 0.
		wantShed := submissions[ti] - 10
		if wantShed < 0 {
			wantShed = 0
		}
		if tl.shed != wantShed {
			t.Errorf("%s: shed %d of %d, want %d", name, tl.shed, submissions[ti], wantShed)
		}
	}
	for seq, n := range coveredSeqs {
		if n != 1 {
			t.Errorf("accepted seq %d covered by %d verdicts, want exactly 1", seq, n)
		}
	}
	if unexpected.Load() > 0 {
		t.Fatalf("%d unexpected submit errors", unexpected.Load())
	}

	// Every Submit returned; the service holds no goroutines of its own.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > baseline+2 {
		t.Errorf("goroutines leaked: baseline=%d after=%d", baseline, after)
	}
	if left := h.svc.Drain(time.Second); left != 0 {
		t.Errorf("drain left %d in flight after soak", left)
	}
}
