package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded reports that admission control shed the request before any
// analysis ran: the in-flight limit was reached. Callers should back off
// rather than retry immediately.
var ErrOverloaded = errors.New("cluster: overloaded, request shed")

// OverloadedError is an overload shed carrying a backoff hint, so a
// saturated daemon tells its clients how long to stay away instead of being
// hot-looped back into the ground. errors.Is(err, ErrOverloaded) matches it.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", ErrOverloaded, e.RetryAfter)
}

// Is lets errors.Is treat every OverloadedError as ErrOverloaded.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// retryAfter is the Retry-After hint attached to every shed: a gate never
// queues, so a slot frees within one request's run and the hint carries no
// backlog to scale with.
const retryAfter = 250 * time.Millisecond

// ErrQuorumNotMet reports that fewer slaves answered before the deadline
// than the configured quorum requires, so no diagnosis was produced.
var ErrQuorumNotMet = errors.New("cluster: quorum not met")

// gate is a non-waiting admission controller: at most limit requests run
// concurrently and the rest are shed at once, because a verdict that queues
// behind others arrives after the moment it was asked for. A nil *gate
// admits everything (the unlimited default).
type gate struct {
	mu       sync.Mutex
	inflight int
	limit    int
}

// newGate returns a gate admitting limit concurrent requests. limit <= 0
// returns nil (unlimited).
func newGate(limit int) *gate {
	if limit <= 0 {
		return nil
	}
	return &gate{limit: limit}
}

// tryAcquire claims a slot, reporting false when all limit are held.
func (g *gate) tryAcquire() bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight < g.limit {
		g.inflight++
		return true
	}
	return false
}

// release returns a slot.
func (g *gate) release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight > 0 {
		g.inflight--
	}
}
