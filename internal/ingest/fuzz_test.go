package ingest

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSanitizer drives one sanitizer with pushes decoded from arbitrary
// bytes: each 9-byte record is a signed time step (regressions,
// duplicates and gaps past the fill limit included) and the raw bits of a
// float64 (NaN and ±Inf included). Whatever arrives, the sanitizer must not
// panic, must release strictly increasing timestamps, and must account for
// every push exactly once as accepted or dropped.
func FuzzSanitizer(f *testing.F) {
	rec := func(dt int8, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{byte(dt)}, math.Float64bits(v))
	}
	var clean, dirty []byte
	for i := 0; i < 20; i++ {
		clean = append(clean, rec(1, float64(i%5))...)
	}
	for _, r := range []struct {
		dt int8
		v  float64
	}{{1, 1}, {0, 2}, {-3, 3}, {2, math.NaN()}, {1, math.Inf(1)}, {60, 4}, {-128, 5}, {4, 1e300}, {1, -1e300}, {127, 0}} {
		dirty = append(dirty, rec(r.dt, r.v)...)
	}
	f.Add(clean)
	f.Add(dirty)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSanitizer(Config{ClampMinSamples: 4})
		var (
			out    []Sample
			pushes uint64
			tm     int64
			last   int64
			seen   bool
		)
		check := func(released []Sample) {
			for _, smp := range released {
				if seen && smp.T <= last {
					t.Fatalf("released t=%d after t=%d", smp.T, last)
				}
				if math.IsNaN(smp.V) || math.IsInf(smp.V, 0) {
					t.Fatalf("released non-finite %v at t=%d", smp.V, smp.T)
				}
				last, seen = smp.T, true
			}
		}
		for ; len(data) >= 9; data = data[9:] {
			tm += int64(int8(data[0]))
			out = s.AppendPush(out[:0], tm, math.Float64frombits(binary.LittleEndian.Uint64(data[1:9])))
			pushes++
			check(out)
		}
		check(s.AppendFlush(out[:0], tm))
		if st := s.Stats(); st.Accepted+st.Dropped() != pushes {
			t.Fatalf("accepted %d + dropped %d != %d pushes (%v)", st.Accepted, st.Dropped(), pushes, st)
		}
	})
}
