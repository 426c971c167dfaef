// Package tenant implements the multi-tenant namespace and quota layer of
// FChain's service mode. A long-lived master serves SLO-violation streams
// from many applications owned by many tenants at once; this package decides,
// per violation, whether the submitting tenant exists and whether it still
// has quota — before any cluster fan-out spends slave budget on it.
//
// Quotas are per-tenant token buckets: each tenant refills at a configured
// violations-per-minute rate up to that same rate (a minute's worth), and
// every admitted violation spends one token. Buckets are independent, so
// shedding is fair by construction — a flooding tenant drains only its own
// bucket and a quiet tenant's violations keep localizing at full rate.
package tenant

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrUnknown reports a violation submitted under a tenant name outside the
// configured namespace (or an empty name).
var ErrUnknown = errors.New("tenant: unknown tenant")

// ErrQuota reports a violation shed because the tenant's token bucket is
// empty: the tenant exceeded its violations-per-minute quota.
var ErrQuota = errors.New("tenant: quota exceeded")

// bucket is one tenant's token bucket state.
type bucket struct {
	tokens float64
	last   time.Time
}

// Registry is the tenant namespace plus per-tenant admission state. The zero
// value is unusable; construct with NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	allowed map[string]bool // nil = open namespace (any non-empty name)
	rate    float64         // violations per minute and bucket capacity; <= 0 = unlimited
	clock   func() time.Time
	buckets map[string]*bucket
}

// NewRegistry builds a registry. allowed lists the tenants the service
// accepts; empty means the namespace is open and any non-empty tenant name is
// admitted (its bucket is created on first use). Every tenant gets its own
// bucket refilling at perMinute violations per minute up to perMinute
// tokens; perMinute <= 0 is unlimited.
func NewRegistry(allowed []string, perMinute float64) *Registry {
	r := &Registry{
		rate:    perMinute,
		clock:   time.Now,
		buckets: make(map[string]*bucket),
	}
	if len(allowed) > 0 {
		r.allowed = make(map[string]bool, len(allowed))
		for _, name := range allowed {
			if name != "" {
				r.allowed[name] = true
			}
		}
	}
	return r
}

// SetClock overrides the registry's time source (tests pin it to drive
// refill deterministically).
func (r *Registry) SetClock(clock func() time.Time) {
	if clock == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// Admit charges one violation against tenant's bucket. It returns nil when
// admitted, ErrUnknown for a name outside the namespace, or ErrQuota when
// the bucket is empty.
func (r *Registry) Admit(tenant string) error {
	if tenant == "" {
		return fmt.Errorf("%w: empty tenant name", ErrUnknown)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.allowed != nil && !r.allowed[tenant] {
		return fmt.Errorf("%w: %q", ErrUnknown, tenant)
	}
	now := r.clock()
	b, ok := r.buckets[tenant]
	if !ok {
		// Created even under an unlimited quota, which never reads it.
		b = &bucket{tokens: r.rate, last: now}
		r.buckets[tenant] = b
	}
	if r.rate <= 0 {
		return nil
	}
	if ok {
		if dt := now.Sub(b.last); dt > 0 {
			b.tokens = min(b.tokens+dt.Seconds()*r.rate/60, r.rate)
		}
		b.last = now
	}
	if b.tokens < 1 {
		return fmt.Errorf("%w: tenant %q over %.3g/min", ErrQuota, tenant, r.rate)
	}
	b.tokens--
	return nil
}
