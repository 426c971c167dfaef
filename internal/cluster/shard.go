package cluster

// Sharded placement and self-healing rebalancing. With WithSharding enabled
// the master owns the component → slave placement: every known component is
// assigned to exactly one registered slave by a consistent-hash ring
// (ring.go), and membership changes move only the components whose owner
// changed. A move carries the component's model state with it — the donor
// ships it to the recipient over the replication channel, then the owner map
// is cut over and each slave is pushed its authoritative owned set — so a
// freshly moved component keeps its learned normal-fluctuation model instead
// of restarting the paper's training window from scratch.

import (
	"errors"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"
)

// sharded reports whether the master owns component placement.
func (m *Master) sharded() bool { return m.shardVnodes > 0 }

// RegisterComponents declares components the master should place on the
// ring. In sharded mode slaves typically register with no components of
// their own; the component universe comes from discovery (or tests) through
// this call, which triggers a rebalance. Idempotent.
func (m *Master) RegisterComponents(comps ...string) {
	m.mu.Lock()
	for _, comp := range comps {
		m.known[comp] = true
	}
	m.mu.Unlock()
	if m.sharded() {
		m.triggerRebalance()
	}
}

// RegisteredComponents reports the size of the component registry: every
// component ever registered or observed, whether or not a slave currently
// covers it. Contrast Components, which lists only covered components.
func (m *Master) RegisteredComponents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.known)
}

// Assignments returns the current placement as owner → sorted components
// (empty outside sharded mode).
func (m *Master) Assignments() map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]string)
	for comp, own := range m.owner {
		out[own] = append(out[own], comp)
	}
	for _, comps := range out {
		sort.Strings(comps)
	}
	return out
}

// Owner returns the slave currently owning comp; ok is false when comp has
// not been placed (non-sharded mode, or no slave has ever been registered).
func (m *Master) Owner(comp string) (owner string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	owner, ok = m.owner[comp]
	return owner, ok
}

// triggerRebalance requests an asynchronous rebalance pass; with
// auto-rebalance disabled it is a no-op (tests drive Rebalance directly).
func (m *Master) triggerRebalance() {
	if !m.autoRebalance {
		return
	}
	select {
	case m.rebalanceReq <- struct{}{}:
	default: // a pass is already requested; it will see the latest state
	}
}

// rebalanceDebounce lets a burst of membership changes (a flapping slave, a
// staggered fleet restart) settle into one rebalance pass instead of one per
// event.
const rebalanceDebounce = 50 * time.Millisecond

// rebalanceLoop runs requested rebalance passes until the master closes.
func (m *Master) rebalanceLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.rebalanceReq:
		}
		timer := time.NewTimer(rebalanceDebounce)
		select {
		case <-m.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		if _, err := m.Rebalance(); err != nil {
			m.obs.Logger().Warn("rebalance pass failed", "err", err)
		}
	}
}

// Rebalance recomputes the placement over the currently registered slaves
// and moves every component whose owner changed, handing each moved
// component's model state from donor to recipient (cold-starting it on the
// recipient when the donor is dead or the transfer stalls). It
// returns how many components moved. Passes are serialized; concurrent
// callers run one after another, each over fresh membership.
func (m *Master) Rebalance() (moved int, err error) {
	if !m.sharded() {
		return 0, errors.New("cluster: master is not sharded")
	}
	m.rebalanceMu.Lock()
	defer m.rebalanceMu.Unlock()
	return m.rebalanceOnce()
}

// rebalanceMove is one component changing owner ("" from = first placement).
type rebalanceMove struct {
	comp, from, to string
}

func (m *Master) rebalanceOnce() (int, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, errors.New("cluster: master closed")
	}
	conns, oldOwner := maps.Clone(m.slaves), maps.Clone(m.owner)
	comps := slices.Sorted(maps.Keys(m.known))
	m.mu.Unlock()
	members := slices.Sorted(maps.Keys(conns))
	if len(members) == 0 || len(comps) == 0 {
		// Total-eviction window (or nothing to place yet): keep the last
		// placement so the next joining slave restores it from checkpoints.
		return 0, nil
	}
	live := func(name string) bool {
		sc := conns[name]
		return sc != nil && !sc.isDead()
	}

	ring := NewRing(m.shardVnodes)
	for _, name := range members {
		ring.Add(name)
	}
	want := ring.AssignBounded(comps, BalanceBound)
	promoted := m.promoteStandbys(comps, oldOwner, want, live)

	// Recompute standby placement over the post-failover primaries.
	newStandby := map[string]string{}
	if m.standbyOn {
		newStandby = ring.AssignStandby(comps, want, BalanceBound)
	}
	m.replMu.Lock()
	standbyChanged := len(newStandby) != len(m.standbyOf)
	for comp, st := range newStandby {
		standbyChanged = standbyChanged || m.standbyOf[comp] != st
	}
	m.replMu.Unlock()

	var moves []rebalanceMove
	for _, comp := range comps {
		to := want[comp]
		if from := oldOwner[comp]; from != to {
			moves = append(moves, rebalanceMove{comp: comp, from: from, to: to})
		}
	}
	if len(moves) == 0 && !standbyChanged {
		return 0, nil
	}
	_ = m.obs.EventJournal().Record("rebalance_started", map[string]any{
		"members": len(members), "moves": len(moves)})
	m.obs.Logger().Info("rebalance started", "members", len(members), "moves", len(moves))

	handoffs := m.moveLive(moves, promoted, conns, live)

	// Phase 2 — batch cutover: flip the owner map and reset the replication
	// books in one critical section, then push every slave its authoritative
	// owned and shadow sets. handleAssign promotes a shadow that phase 1 (or
	// standing replication) filled, falls back to the shared-checkpoint copy
	// otherwise, and drops what moved away. Any component whose primary or
	// standby changed restarts from sequence zero — acks addressed to the old
	// placement can never satisfy the warm gate — and rides the pushes as
	// ReplReset, so even a quiet owner (no new samples) ships its new standby
	// the full state at its next tick.
	resetComps := make(map[string]bool)
	m.mu.Lock()
	m.replMu.Lock()
	clear(m.moveTo)
	for comp := range m.replSent {
		if _, ok := newStandby[comp]; !ok {
			delete(m.replSent, comp)
			delete(m.replAcked, comp)
		}
	}
	for comp, st := range newStandby {
		if m.standbyOf[comp] != st || oldOwner[comp] != want[comp] {
			resetComps[comp] = true
			delete(m.replSent, comp)
			delete(m.replAcked, comp)
		}
	}
	m.standbyOf = newStandby
	m.replMu.Unlock()
	for comp, to := range want {
		m.owner[comp] = to
	}
	push := make(map[string]*envelope, len(m.slaves))
	for name, sc := range m.slaves {
		push[name] = &envelope{Type: typeAssign} // a slave owning nothing still needs the empty push
		conns[name] = sc                         // including one that joined since the pass began
	}
	for _, comp := range comps { // in sorted order, so every pushed list is sorted
		if env := push[m.owner[comp]]; env != nil {
			env.Components = append(env.Components, comp)
			if resetComps[comp] {
				env.ReplReset = append(env.ReplReset, comp)
			}
		}
		if env := push[newStandby[comp]]; env != nil {
			env.Shadow = append(env.Shadow, comp)
		}
	}
	m.mu.Unlock()
	m.pushAssign(push, conns)

	m.obs.Registry().Counter("fchain_rebalance_components_total",
		"Components moved to a new owner by rebalancing.").Add(int64(len(moves)))
	_ = m.obs.EventJournal().Record("rebalance_done", map[string]any{
		"moved": len(moves), "handoffs": handoffs})
	m.obs.Logger().Info("rebalance done", "moved", len(moves), "handoffs", handoffs)
	return len(moves), nil
}

// pushAssign sends each named slave its assign frame, waits for the acks, and
// returns the names whose push failed.
func (m *Master) pushAssign(push map[string]*envelope, conns map[string]*slaveConn) map[string]bool {
	failed := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, env := range push {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := conns[name].request(env, m.handoffTimeout, m.stop); err != nil {
				m.obs.Logger().Warn("assignment push failed", "slave", name, "err", err)
				mu.Lock()
				failed[name] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed
}

// promoteStandbys is warm-standby failover: a component leaving a dead donor
// is promoted in place on its caught-up standby instead of moving to the
// ring's choice — want is edited accordingly. The standby's shadow monitor
// already holds the donor's replicated state, so phase 1 has nothing to
// transfer and the slave's handleAssign adopts the shadow without touching
// the checkpoint directory. A missing or dead standby, or one that has not
// acked everything its primary shipped, falls back to the cold path.
func (m *Master) promoteStandbys(comps []string, oldOwner, want map[string]string, live func(string) bool) (promoted map[string]bool) {
	promoted = make(map[string]bool)
	if !m.standbyOn {
		return promoted
	}
	for _, comp := range comps {
		from := oldOwner[comp]
		if from == "" || from == want[comp] || live(from) {
			continue // placed already, or a live donor: a plain move, phase 1 carries the state
		}
		m.replMu.Lock()
		st := m.standbyOf[comp]
		caughtUp := m.replSent[comp] > 0 && m.replAcked[comp] == m.replSent[comp]
		m.replMu.Unlock()
		mode := "cold"
		if live(st) && caughtUp {
			want[comp], promoted[comp], mode = st, true, "warm"
		}
		m.obs.Registry().CounterWith("fchain_failover_total",
			"Dead-owner failovers by recovery mode.", map[string]string{"mode": mode}).Inc()
		_ = m.obs.EventJournal().Record("failover", map[string]any{
			"component": comp, "from": from, "to": want[comp], "mode": mode})
	}
	return promoted
}

// moveChunk is how many components one donor ships per push. A full state is
// hundreds of kilobytes: the chunk bounds what sits in the master's relay
// queue, and since each chunk must land before the next is asked for, the
// handoff timeout measures lack of progress rather than capping a batch.
const moveChunk = 32

// moveLive is phase 1 — state transfer, before any ownership changes: donors
// still own (and keep feeding) their components while copies move, so a
// localization racing the rebalance still sees every component answered by
// its pre-move owner. State moves the one way it ever moves between slaves:
// each moving component's replication is pointed at its recipient, its live
// donor is asked to ship the full state now (an assign frame that lists the
// component as ReplReset and nothing else), and the pass waits until the
// recipient has acked everything the donor shipped. Phase 2's assign then
// promotes the recipient's shadow exactly like a warm failover. A component
// whose donor is dead, or whose transfer makes no progress for the handoff
// timeout, is left to cold-start on its recipient (or restore the shared
// checkpoint) — the rebalance never wedges. It returns how many landed warm.
func (m *Master) moveLive(moves []rebalanceMove, promoted map[string]bool,
	conns map[string]*slaveConn, live func(string) bool) (landed int) {
	cold := func(mv rebalanceMove) {
		_ = m.obs.EventJournal().Record("handoff_cold", map[string]any{
			"component": mv.comp, "from": mv.from, "to": mv.to})
	}
	queue := make(map[string][]rebalanceMove) // live donor → its moves still to ship
	for _, mv := range moves {
		if promoted[mv.comp] {
			continue // the standby's shadow is the state; nothing to transfer
		}
		if hook := m.handoffHook.Load(); hook != nil {
			(*hook)(mv.comp, mv.from, mv.to) // chaos tests kill peers mid-transfer here
		}
		switch {
		case !live(mv.to):
		case mv.from == "" || !live(mv.from):
			cold(mv)
		default:
			queue[mv.from] = append(queue[mv.from], mv)
		}
	}
	giveUp := func(donor string) {
		for _, mv := range queue[donor] {
			cold(mv)
		}
		delete(queue, donor)
	}
	for len(queue) > 0 {
		// One round: every donor with moves left is asked to ship its next
		// chunk — an assign frame carrying nothing but the ReplReset list.
		waiting := make(map[string]rebalanceMove)
		push := make(map[string]*envelope, len(queue))
		m.replMu.Lock()
		for donor, mvs := range queue {
			n := min(len(mvs), moveChunk)
			push[donor] = &envelope{Type: typeAssign}
			for _, mv := range mvs[:n] {
				waiting[mv.comp] = mv
				push[donor].ReplReset = append(push[donor].ReplReset, mv.comp)
				m.moveTo[mv.comp] = mv.to
				delete(m.replSent, mv.comp)
				delete(m.replAcked, mv.comp)
			}
			if queue[donor] = mvs[n:]; n == len(mvs) {
				delete(queue, donor)
			}
		}
		m.replMu.Unlock()
		// A donor ships before it acks a ship request, so once the push returns
		// every frame it shipped has been counted as sent: the gate is exact.
		failed := m.pushAssign(push, conns)
		gone := func(mv rebalanceMove) bool { return failed[mv.from] || !live(mv.from) }
		n, stalled := m.awaitLanded(waiting, func(mv rebalanceMove) bool { return gone(mv) || !live(mv.to) })
		landed += n
		for _, mv := range waiting {
			cold(mv)
			if gone(mv) {
				giveUp(mv.from)
			}
		}
		if stalled {
			m.obs.Logger().Warn("state transfer stalled; what has not landed will cold-start", "components", len(waiting))
			break // a channel that stopped moving will not carry the rest either
		}
	}
	for donor := range queue {
		giveUp(donor)
	}
	return landed
}

// awaitLanded waits for the waiting moves to land — the recipient has acked
// everything the donor shipped — deleting each from waiting as it does. It
// returns once every move left has lost a peer, or with stalled set when
// nothing landed for the handoff timeout (or the master is closing).
func (m *Master) awaitLanded(waiting map[string]rebalanceMove, lost func(rebalanceMove) bool) (landed int, stalled bool) {
	timer := time.NewTimer(m.handoffTimeout)
	defer timer.Stop()
	for {
		var done []rebalanceMove
		m.replMu.Lock()
		for comp, mv := range waiting {
			if seq := m.replSent[comp]; seq > 0 && m.replAcked[comp] == seq {
				done = append(done, mv)
			}
		}
		m.replMu.Unlock()
		for _, mv := range done {
			delete(waiting, mv.comp)
			_ = m.obs.EventJournal().Record("handoff", map[string]any{
				"component": mv.comp, "from": mv.from, "to": mv.to})
		}
		landed += len(done)
		open := 0
		for _, mv := range waiting {
			if !lost(mv) {
				open++
			}
		}
		if open == 0 {
			return landed, false
		}
		if len(done) > 0 {
			timer.Reset(m.handoffTimeout)
		}
		select {
		case <-m.replAck:
		case <-timer.C:
			return landed, true
		case <-m.stop:
			return landed, true
		}
	}
}
