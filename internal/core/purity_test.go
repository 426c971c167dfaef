package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"fchain/internal/metric"
)

// TestMonitorStateIsPureFunctionOfSamples states the invariant every
// transport leans on: a monitor's state is a pure function of the accepted
// sample sequence. A subject is fed through Ingest with short and long
// collection gaps, and at random points its state moves to a fresh monitor,
// either by Snapshot → JSON → Restore or by FrameInto → AppendBinary →
// DecodeDelta → ApplyDelta into a shadow that is later promoted. A twin gets
// the same Ingest calls and never moves. After every move, and at the end,
// the two must encode to the same snapshot bytes, and their next 50
// prediction errors must carry the same bits. A restored model stores its
// rows in ascending bin order, the twin's in the order they were first
// touched, so this also pins that the storage order never reaches the state.
func TestMonitorStateIsPureFunctionOfSamples(t *testing.T) {
	cfg := Config{RingCapacity: 64}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		subject, twin := NewMonitor("c", cfg), NewMonitor("c", cfg)
		var shadow *Monitor
		var floors map[string]int64
		var d ReplDelta
		var level [metric.NumKinds + 1]float64
		var moves, ships, promotions, longGaps int
		ts := int64(0)

		tick := func() {
			for _, k := range metric.Kinds {
				if rng.Float64() < 0.01 {
					// An excursion past the model's range, up or down.
					level[k] += float64(1-2*rng.Intn(2)) * (50 + 200*rng.Float64())
				}
				v := 100 + level[k] + 10*math.Sin(float64(ts)/(5+float64(k))) + rng.NormFloat64()
				if err := subject.Ingest(ts, k, v); err != nil {
					t.Fatal(err)
				}
				if err := twin.Ingest(ts, k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		// same flushes both sanitizers' reorder buffers, which releases the
		// same samples either way, and compares the snapshot bytes.
		same := func(step string) {
			t.Helper()
			subject.FlushIngest(ts)
			twin.FlushIngest(ts)
			if a, b := monitorJSON(t, subject), monitorJSON(t, twin); !bytes.Equal(a, b) {
				t.Fatalf("seed %d t=%d after %s: subject snapshot differs from the twin's", seed, ts, step)
			}
		}
		ship := func() {
			t.Helper()
			if shadow == nil {
				shadow, floors = NewMonitor("c", cfg), nil
			}
			full, _, _ := subject.FrameInto(&d, floors)
			if err := shadow.ApplyDelta(overWire(t, &d)); err != nil {
				t.Fatalf("seed %d t=%d: apply: %v", seed, ts, err)
			}
			if full != nil {
				floors = full
			} else {
				d.AdvanceFloors(floors)
			}
			ships++
		}

		for i := 0; i < 1500; i++ {
			switch r := rng.Float64(); {
			case r < 0.02:
				ts += 12 + rng.Int63n(100) // past MaxFillGap: the history is severed
				longGaps++
			case r < 0.04:
				ts += 2 + rng.Int63n(8) // filled by interpolation
			default:
				ts++
			}
			tick()
			switch r := rng.Float64(); {
			case r < 0.02:
				same("ingest")
				raw, err := json.Marshal(subject.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				var snap MonitorSnapshot
				if err := json.Unmarshal(raw, &snap); err != nil {
					t.Fatal(err)
				}
				subject = NewMonitor("c", cfg)
				if err := subject.Restore(&snap); err != nil {
					t.Fatalf("seed %d t=%d: restore: %v", seed, ts, err)
				}
				moves++
				same("restore")
			case r < 0.08:
				subject.FlushIngest(ts)
				ship()
			case r < 0.09 && shadow != nil:
				subject.FlushIngest(ts)
				ship()
				subject, shadow = shadow, nil
				promotions++
				same("promotion")
			}
		}
		same("the last sample")
		if moves == 0 || ships == 0 || promotions == 0 || longGaps == 0 {
			t.Fatalf("seed %d missed a path: moves=%d ships=%d promotions=%d long gaps=%d", seed, moves, ships, promotions, longGaps)
		}

		const next = 50
		for range next {
			ts++
			tick()
		}
		subject.FlushIngest(ts)
		twin.FlushIngest(ts)
		for _, k := range metric.Kinds {
			a, b := subject.shards[k].errs, twin.shards[k].errs
			if a.Len() < next || b.Len() < next {
				t.Fatalf("seed %d %s: %d and %d errors retained, want %d", seed, k, a.Len(), b.Len(), next)
			}
			for i := a.Len() - next; i < a.Len(); i++ {
				if x, y := a.Value(i), b.Value(b.Len()-a.Len()+i); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("seed %d %s: prediction error %d is %v, the twin's %v", seed, k, i, x, y)
				}
			}
		}
	}
}
