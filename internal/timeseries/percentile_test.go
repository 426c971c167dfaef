package timeseries

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// sortPercentile is the reference PercentileScratch is held to: the full
// copy-and-sort implementation it replaced, kept with its own copy of the
// rank arithmetic so a slip in closestRank/interpolate shows up as a
// difference.
func sortPercentile(vals []float64, p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameFloat is bit equality, except that the two zeros — equal as values,
// and left in either order by a sort — and any two NaNs count as the same.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// medianOfThreeKiller builds the input that defeats selectNth's own pivot
// rule when it looks for the maximum: every partition pass sees the two
// smallest values of its range among the three it samples, picks the second
// smallest as the pivot and sheds two elements. The element moves are
// obtained by running the real partition over placeholders that carry their
// original position, so the construction follows the code it attacks.
func medianOfThreeKiller(n int) []float64 {
	const unassigned = 1 << 40
	a := make([]float64, n)
	for i := range a {
		a[i] = unassigned + float64(i)
	}
	out := make([]float64, n)
	next := 0.0
	assign := func(pos int) {
		out[int(a[pos]-unassigned)] = next
		a[pos] = next
		next++
	}
	for lo := 0; n-lo > selectCutoff; {
		assign(lo)
		assign(lo + (n-lo)/2)
		_, lo = partition(a, lo, n)
	}
	for pos := range a {
		if a[pos] >= unassigned {
			assign(pos)
		}
	}
	return out
}

// selectionInputs are the input families the differential tests run over.
var selectionInputs = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []float64
}{
	{"random", func(n int, rng *rand.Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64() * 100
		}
		return out
	}},
	{"quantised", func(n int, rng *rand.Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(rng.Intn(7)) / 2
		}
		return out
	}},
	{"mostly-zero", func(n int, rng *rand.Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			if rng.Intn(10) == 0 {
				out[i] = rng.Float64()
			} else if rng.Intn(2) == 0 {
				out[i] = math.Copysign(0, -1)
			}
		}
		return out
	}},
	{"all-equal", func(n int, _ *rand.Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 3.25
		}
		return out
	}},
	{"sorted", func(n int, _ *rand.Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}},
	{"reversed", func(n int, _ *rand.Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}},
	{"organ-pipe", func(n int, _ *rand.Rand) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(min(i, n-1-i))
		}
		return out
	}},
	{"musser", func(n int, _ *rand.Rand) []float64 {
		// Musser's median-of-3 killer for first/middle/last sampling.
		out := make([]float64, n)
		k := n / 2
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				out[i] = float64(i + 1)
			} else {
				out[i] = float64(k + i)
			}
			out[k+i] = float64(2 * (i + 1))
		}
		return out
	}},
	{"killer", func(n int, _ *rand.Rand) []float64 { return medianOfThreeKiller(n) }},
}

// selectionSizes is every n up to 256 and a thinning sweep on to 4096.
func selectionSizes() []int {
	var sizes []int
	for n := 1; n <= 4096; n += 1 + n/256*7 {
		sizes = append(sizes, n)
	}
	return append(sizes, 4096)
}

var selectionPercentiles = []float64{0, 1, 50, 90, 99, 100, 37.3, 99.9, -5, 250}

// TestPercentileScratchMatchesSort holds the selecting implementation to
// the sort reference bit for bit, over input shapes chosen to break a
// quickselect: duplicates, presorted runs, and sequences built against the
// pivot rule.
func TestPercentileScratchMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch []float64
	for _, in := range selectionInputs {
		for _, n := range selectionSizes() {
			vals := in.gen(n, rng)
			orig := append([]float64(nil), vals...)
			for _, p := range selectionPercentiles {
				want := sortPercentile(vals, p)
				got, err := PercentileScratch(vals, p, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloat(got, want) {
					t.Fatalf("%s n=%d p=%v: selected %v (%#x), sorted %v (%#x)",
						in.name, n, p, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			// The pair reads both ranks off one copy; cover ranks that
			// coincide, touch and lie far apart.
			for _, pp := range [][2]float64{{1, 99}, {0, 100}, {50, 50}, {49.9, 50.1}, {90, 10}} {
				low, high, err := PercentilePairScratch(vals, pp[0], pp[1], &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if wl, wh := sortPercentile(vals, pp[0]), sortPercentile(vals, pp[1]); !sameFloat(low, wl) || !sameFloat(high, wh) {
					t.Fatalf("%s n=%d pair %v: selected (%v, %v), sorted (%v, %v)", in.name, n, pp, low, high, wl, wh)
				}
			}
			for i := range vals {
				if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("%s n=%d: input mutated at %d", in.name, n, i)
				}
			}
		}
	}
	// Tail pairs take the scan (tailScan) while both percentiles read
	// within tailScanMax values of their end, and selection beyond: every
	// n up to 300, and a few sizes either side of each pair's switch-over.
	for _, pp := range tailPairs {
		sizes := make([]int, 0, 310)
		for n := 1; n <= 300; n++ {
			sizes = append(sizes, n)
		}
		if last, ok := lastTailScanSize(pp[0], pp[1]); ok {
			for n := last - 2; n <= last+3; n++ {
				sizes = append(sizes, n)
			}
		}
		for _, in := range selectionInputs {
			for _, n := range sizes {
				vals := in.gen(n, rng)
				low, high, err := PercentilePairScratch(vals, pp[0], pp[1], &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if wl, wh := sortPercentile(vals, pp[0]), sortPercentile(vals, pp[1]); !sameFloat(low, wl) || !sameFloat(high, wh) {
					t.Fatalf("%s n=%d tail pair %v: got (%v, %v), sorted (%v, %v)", in.name, n, pp, low, high, wl, wh)
				}
			}
		}
	}
	if _, err := PercentileScratch(nil, 50, &scratch); err != ErrEmpty {
		t.Fatalf("empty input: err = %v, want ErrEmpty", err)
	}
	if _, _, err := PercentilePairScratch(nil, 1, 99, &scratch); err != ErrEmpty {
		t.Fatalf("empty input pair: err = %v, want ErrEmpty", err)
	}
}

// tailPairs are the symmetric and asymmetric tail percentile pairs the
// scan path is held to the sort reference on.
var tailPairs = [][2]float64{{1, 99}, {0, 100}, {0, 99}, {1, 100}, {0.3, 99.9}, {2.5, 97}, {5, 99.5}, {10, 90}}

// lastTailScanSize is the largest n at which PercentilePairScratch answers
// (pLow, pHigh) with the tail scan rather than selection: the count of
// values each percentile reads from its end, as closestRank places it, is
// at most tailScanMax. ok is false when the pair never switches over below
// 8192 values ({0, 100} reads one value at each end at every size).
func lastTailScanSize(pLow, pHigh float64) (last int, ok bool) {
	const limit = 8192
	for n := 1; n <= limit; n++ {
		loL, fracL := closestRank(n, pLow)
		loH, _ := closestRank(n, pHigh)
		nLow := loL + 1
		if fracL != 0 {
			nLow++
		}
		if nLow <= tailScanMax && n-loH <= tailScanMax {
			last = n
		}
	}
	return last, last < limit
}

// TestTailScanFallback: a sample that lands only on the smallest values sets
// the low bar too low, tailScan reports that it cannot settle the pair, and
// PercentilePairScratch still matches the sort reference by selecting.
func TestTailScanFallback(t *testing.T) {
	var scratch []float64
	for _, n := range []int{600, 1339, 3000} {
		stride := (n + tailSample - 1) / tailSample
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(n + i)
			if i%stride == 0 {
				vals[i] = float64(i) // every sampled value is below every other
			}
		}
		loL, fracL := closestRank(n, 1)
		loH, _ := closestRank(n, 99)
		nLow := loL + 1
		if fracL != 0 {
			nLow++
		}
		if _, _, ok := tailScan(vals, nLow, n-loH, make([]float64, 2*n)); ok {
			t.Fatalf("n=%d: the scan settled a pair its sample misplaced", n)
		}
		low, high, err := PercentilePairScratch(vals, 1, 99, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if wl, wh := sortPercentile(vals, 1), sortPercentile(vals, 99); !sameFloat(low, wl) || !sameFloat(high, wh) {
			t.Fatalf("n=%d: got (%v, %v), sorted (%v, %v)", n, low, high, wl, wh)
		}
	}
}

// TestSelectNthPassBound pins the introselect guarantee on a count, not on
// a clock: no input, adversarial or not, gets more partition passes than
// twice the bit length of n, and the result is a correct partial order
// whether or not the sort fallback ran.
func TestSelectNthPassBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, in := range selectionInputs {
		for _, n := range selectionSizes() {
			vals := in.gen(n, rng)
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			for _, k := range []int{0, n / 100, n / 2, n * 9 / 10, n - 1} {
				buf := append([]float64(nil), vals...)
				passes := selectNth(buf, k)
				if limit := 2 * bits.Len(uint(n)); passes > limit {
					t.Fatalf("%s n=%d k=%d: %d partition passes, limit %d", in.name, n, k, passes, limit)
				}
				if !sameFloat(buf[k], sorted[k]) {
					t.Fatalf("%s n=%d k=%d: got %v, want %v", in.name, n, k, buf[k], sorted[k])
				}
				for i, v := range buf {
					if (i < k && v > buf[k]) || (i > k && v < buf[k]) {
						t.Fatalf("%s n=%d k=%d: buf[%d]=%v on the wrong side of %v", in.name, n, k, i, v, buf[k])
					}
				}
			}
		}
	}
	// The killer must really be one: without the cap it would take ~n/2
	// passes, so selecting its maximum has to end in the fallback.
	const n = 4096
	buf := medianOfThreeKiller(n)
	if passes, limit := selectNth(buf, n-1), 2*bits.Len(uint(n)); passes != limit {
		t.Fatalf("killer n=%d: %d passes, want the cap %d (fallback not reached)", n, passes, limit)
	}
	if buf[n-1] != n-1 {
		t.Fatalf("killer n=%d: maximum %v, want %d", n, buf[n-1], n-1)
	}
}

// floatsFromBytes decodes data as little-endian float64s: arbitrary bit
// patterns, so NaN, ±Inf, ±0 and subnormals all occur.
func floatsFromBytes(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// FuzzPercentileScratch feeds arbitrary bit patterns through both
// percentile entry points. Contract: never panics, always returns, never
// mutates its input, and on NaN-free input equals the sort reference.
func FuzzPercentileScratch(f *testing.F) {
	encode := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add([]byte{}, int16(5000))
	f.Add(encode(3, 1, 2), int16(5000))
	f.Add(encode(math.NaN(), 1, math.Inf(1), math.Copysign(0, -1), 0, math.Inf(-1), 5e-324, math.NaN()), int16(9900))
	f.Add(encode(medianOfThreeKiller(64)...), int16(10000))
	f.Add(encode(make([]float64, 40)...), int16(-1))

	f.Fuzz(func(t *testing.T, data []byte, centi int16) {
		vals := floatsFromBytes(data)
		p := float64(centi) / 100
		orig := append([]float64(nil), vals...)
		clean := true
		for _, v := range vals {
			clean = clean && !math.IsNaN(v)
		}
		var scratch []float64
		got, err := PercentileScratch(vals, p, &scratch)
		low, high, perr := PercentilePairScratch(vals, 100-p, p, &scratch)
		// A pair whose low end is pinned at the minimum: near p=100 both
		// ends are tails, so this is the scan path on short inputs.
		lowMin, highP, merr := PercentilePairScratch(vals, 0, p, &scratch)
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("input mutated at %d", i)
			}
		}
		if len(vals) == 0 {
			if err != ErrEmpty || perr != ErrEmpty {
				t.Fatalf("empty input: errs %v, %v, want ErrEmpty", err, perr)
			}
			return
		}
		if err != nil || perr != nil || merr != nil {
			t.Fatalf("unexpected errors %v, %v, %v", err, perr, merr)
		}
		if !clean {
			return
		}
		if want := sortPercentile(vals, p); !sameFloat(got, want) || !sameFloat(high, want) {
			t.Fatalf("p=%v: selected %v, pair %v, sorted %v", p, got, high, want)
		}
		if want := sortPercentile(vals, 100-p); !sameFloat(low, want) {
			t.Fatalf("p=%v: pair low %v, sorted %v", 100-p, low, want)
		}
		if wl, wh := sortPercentile(vals, 0), sortPercentile(vals, p); !sameFloat(lowMin, wl) || !sameFloat(highP, wh) {
			t.Fatalf("pair (0, %v): got (%v, %v), sorted (%v, %v)", p, lowMin, highP, wl, wh)
		}
	})
}

// TestRingReadsMatchAtWalk checks the two bulk reads against an At(i)
// walk at every head position a ring can be in: empty, partially filled,
// exactly full, wrapped any number of slots, and refilled after Clear.
func TestRingReadsMatchAtWalk(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 8} {
		r := NewRing(capacity)
		reused := &Series{}
		check := func(when string) {
			t.Helper()
			wantT := make([]int64, r.Len())
			wantV := make([]float64, r.Len())
			for i := range wantV {
				wantT[i], wantV[i] = r.At(i)
			}
			if r.Cap() != capacity {
				t.Fatalf("cap %d %s: Cap() = %d", capacity, when, r.Cap())
			}
			for _, s := range []*Series{r.Series(), r.SeriesInto(reused)} {
				if s.Len() != len(wantV) {
					t.Fatalf("cap %d %s: series len %d, want %d", capacity, when, s.Len(), len(wantV))
				}
				if len(wantT) > 0 && s.Start() != wantT[0] {
					t.Fatalf("cap %d %s: series start %d, want %d", capacity, when, s.Start(), wantT[0])
				}
				for i, v := range wantV {
					if s.At(i) != v {
						t.Fatalf("cap %d %s: series[%d] = %v, want %v", capacity, when, i, s.At(i), v)
					}
				}
			}
		}
		check("empty")
		ts := int64(100)
		push := func(count int, when string) {
			for i := 0; i < count; i++ {
				r.Push(ts, float64(ts)*1.5)
				ts++
				check(when)
			}
		}
		push(3*capacity+1, "filling and wrapping")
		r.Clear()
		check("cleared")
		push(2*capacity, "refilled after clear")
	}
}
