// Package fftpkg implements the fast Fourier transform primitives behind
// FChain's burstiness-adaptive prediction error threshold.
//
// FChain cannot use a fixed prediction-error threshold to separate abnormal
// change points from normal ones: bursty metrics are inherently harder to
// predict. Instead, for each candidate change point it extracts a small
// window of surrounding samples, isolates the high-frequency ("burst")
// portion of the signal with an FFT/inverse-FFT round trip, and uses a high
// percentile of the burst magnitude as the *expected* prediction error for
// that point (paper §II-B, Fig. 4).
//
// The per-violation analysis path calls ExpectedError once per candidate
// change point across every metric of every component, so the transform is
// built to be allocation-free in steady state: twiddle factors are computed
// once per padded size and cached process-wide, and the complex/float
// working buffers come from pools.
package fftpkg

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"
	"sync"
)

// ErrEmpty is returned when a transform is requested on an empty signal.
var ErrEmpty = errors.New("fftpkg: empty signal")

// plan holds the precomputed twiddle factors for one padded size. For each
// butterfly stage of length L the plan stores the L/2 powers of the stage's
// root of unity, laid out stage after stage (1 + 2 + ... + n/2 = n-1
// entries per direction). Plans are immutable once built and shared across
// goroutines.
type plan struct {
	n        int
	fwd, inv []complex128
}

// plans caches one *plan per padded size, keyed by int n. Analysis windows
// cluster around a handful of sizes (the burst window's next power of two),
// so the cache stays tiny.
var plans sync.Map

func planFor(n int) *plan {
	if p, ok := plans.Load(n); ok {
		return p.(*plan)
	}
	p := &plan{n: n}
	if n >= 2 {
		p.fwd = make([]complex128, 0, n-1)
		p.inv = make([]complex128, 0, n-1)
		for length := 2; length <= n; length <<= 1 {
			ang := 2 * math.Pi / float64(length)
			wlFwd := cmplx.Exp(complex(0, -ang))
			wlInv := cmplx.Exp(complex(0, ang))
			wf, wi := complex(1, 0), complex(1, 0)
			for k := 0; k < length/2; k++ {
				p.fwd = append(p.fwd, wf)
				p.inv = append(p.inv, wi)
				// Running product, matching the original on-the-fly
				// twiddle computation bit for bit so cached transforms
				// reproduce the exact historical outputs.
				wf *= wlFwd
				wi *= wlInv
			}
		}
	}
	actual, _ := plans.LoadOrStore(n, p)
	return actual.(*plan)
}

// scratch pools the working buffers of the allocation-free entry points.
// Buffers are stored via pointers (a plain slice in an interface would
// re-box on every Put) and grown to the largest size seen.
type scratch struct {
	cbuf []complex128
	fbuf []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) complexBuf(n int) []complex128 {
	if cap(s.cbuf) < n {
		s.cbuf = make([]complex128, n)
	}
	return s.cbuf[:n]
}

func (s *scratch) floatBuf(n int) []float64 {
	if cap(s.fbuf) < n {
		s.fbuf = make([]float64, n)
	}
	return s.fbuf[:n]
}

// transform performs an in-place iterative radix-2 FFT using the cached
// twiddle plan for len(buf). inverse selects the conjugate transform
// (without the 1/n scaling, which the caller applies).
func transform(buf []complex128, inverse bool) {
	n := len(buf)
	if n < 2 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	tw := planFor(n).fwd
	if inverse {
		tw = planFor(n).inv
	}
	stage := 0
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		w := tw[stage : stage+half]
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				u := buf[start+k]
				v := buf[start+k+half] * w[k]
				buf[start+k] = u + v
				buf[start+k+half] = u - v
			}
		}
		stage += half
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// burstInto computes the burst signal of x into the pooled complex buffer
// and returns it (length = padded n; the caller reads the first len(x)
// entries' real parts, already 1/n-scaled).
func burstInto(sc *scratch, x []float64, highFrac float64) []complex128 {
	// NaN survives both clamps below and would poison lowRanks through the
	// float→int conversion; treat it as "keep everything".
	if math.IsNaN(highFrac) {
		highFrac = 1
	}
	if highFrac < 0 {
		highFrac = 0
	}
	if highFrac > 1 {
		highFrac = 1
	}
	n := nextPow2(len(x))
	buf := sc.complexBuf(n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	for i := len(x); i < n; i++ {
		buf[i] = 0
	}
	transform(buf, false)
	// Frequency index k and n-k represent the same physical frequency; rank
	// by min(k, n-k). DC (k=0) is the lowest frequency. We zero the lowest
	// (1-highFrac) fraction of distinct frequency ranks.
	nyquist := n / 2
	lowRanks := int(math.Round((1 - highFrac) * float64(nyquist+1)))
	for k := 0; k < n; k++ {
		rank := k
		if n-k < rank {
			rank = n - k
		}
		if rank < lowRanks {
			buf[k] = 0
		}
	}
	transform(buf, true)
	inv := complex(1/float64(n), 0)
	for i := range buf {
		buf[i] *= inv
	}
	return buf
}

// ExpectedError computes FChain's burstiness-adaptive expected prediction
// error for the window x around a candidate change point: the pct-th
// percentile (e.g. 90) of the absolute burst-signal magnitude, where the
// burst signal keeps the top highFrac of frequencies (paper §II-B). It
// allocates nothing in steady state.
func ExpectedError(x []float64, highFrac, pct float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	sc := scratchPool.Get().(*scratch)
	buf := burstInto(sc, x, highFrac)
	mags := sc.floatBuf(len(x))
	for i := range mags {
		mags[i] = math.Abs(real(buf[i]))
	}
	sort.Float64s(mags)
	// A NaN pct would slip past both clamps and turn rank into NaN, whose
	// int conversion is unspecified — an out-of-range index at worst.
	if math.IsNaN(pct) {
		pct = 100
	}
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	rank := pct / 100 * float64(len(mags)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	out := mags[lo]
	if lo != hi {
		frac := rank - float64(lo)
		out = mags[lo]*(1-frac) + mags[hi]*frac
	}
	scratchPool.Put(sc)
	return out, nil
}
