package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateNilAdmitsEverything: the unlimited default (nil gate) admits any
// number of callers without blocking.
func TestGateNilAdmitsEverything(t *testing.T) {
	var g *gate
	for i := 0; i < 100; i++ {
		if !g.tryAcquire() {
			t.Fatal("nil gate refused tryAcquire")
		}
	}
	g.release() // must not panic
}

// TestGateLimit: tryAcquire admits exactly limit callers, and release frees
// a slot for the next.
func TestGateLimit(t *testing.T) {
	g := newGate(2)
	if !g.tryAcquire() || !g.tryAcquire() {
		t.Fatal("gate refused within its limit")
	}
	if g.tryAcquire() {
		t.Fatal("gate admitted past its limit")
	}
	g.release()
	if !g.tryAcquire() {
		t.Fatal("gate refused after a release")
	}
}

// TestGateZeroQueueShedsImmediately: a gate has no waiting room, so a full
// gate sheds the caller synchronously.
func TestGateZeroQueueShedsImmediately(t *testing.T) {
	g := newGate(1)
	if !g.tryAcquire() {
		t.Fatal("empty gate refused")
	}
	start := time.Now()
	if g.tryAcquire() {
		t.Fatal("tryAcquire on a full gate admitted")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("zero-queue shed was not immediate")
	}
}

// TestGateConcurrentStress hammers one small gate from many goroutines and
// checks the concurrency invariant (never more than limit holders at once)
// and that every successful acquire is paired with a release. Run with -race.
func TestGateConcurrentStress(t *testing.T) {
	const limit = 3
	g := newGate(limit)
	var holders, maxHolders, granted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if !g.tryAcquire() {
					shed.Add(1)
					continue
				}
				granted.Add(1)
				h := holders.Add(1)
				for {
					m := maxHolders.Load()
					if h <= m || maxHolders.CompareAndSwap(m, h) {
						break
					}
				}
				time.Sleep(time.Microsecond)
				holders.Add(-1)
				g.release()
			}
		}()
	}
	wg.Wait()
	if m := maxHolders.Load(); m > limit {
		t.Errorf("observed %d concurrent holders, limit %d", m, limit)
	}
	if granted.Load() == 0 {
		t.Error("stress admitted nothing")
	}
	// After the dust settles the gate must be fully free.
	for i := 0; i < limit; i++ {
		if !g.tryAcquire() {
			t.Fatalf("slot %d leaked after stress (granted=%d shed=%d)", i, granted.Load(), shed.Load())
		}
	}
}
