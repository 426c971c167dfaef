// Package markov implements the online discrete-time Markov chain value
// predictor that FChain uses as its normal fluctuation model.
//
// Following PRESS (Gong, Gu, Wilkes, CNSM 2010 — cited as [12] in the FChain
// paper), each system metric's value range is discretized into bins and a
// transition probability matrix between bins is learned online with
// exponential decay. Change patterns caused by normal workload fluctuation
// recur and are therefore learned by the model, yielding small prediction
// errors; fault-induced fluctuations have not been seen before and yield
// large prediction errors. FChain's abnormal change point selection uses
// exactly this prediction error signal (paper §II-A/B).
package markov

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Default model parameters. 40 bins balances resolution against the amount
// of history needed to populate the transition matrix; the decay keeps the
// model adaptive to slowly evolving workloads.
const (
	DefaultBins  = 40
	DefaultDecay = 0.999
)

// MaxBins is the finest discretization a predictor takes: New clamps to it
// and FromSnapshot refuses more, so a corrupted snapshot cannot demand a
// bins² matrix the size of the address space. At 256 bins one stream's
// matrix reaches half a megabyte once every row is occupied.
const MaxBins = 256

// Predictor is an online Markov chain model over a single metric stream.
// It is not safe for concurrent use; FChain runs one predictor per
// (component, metric) pair inside a single collection goroutine.
type Predictor struct {
	bins  int
	decay float64

	lo, hi   float64 // current discretization range
	rangeSet bool

	// mask has words uint64s per row: bit to of row from is set once a
	// count has been added at [from][to]. cells holds the decayed count of
	// each set bit and nothing else, rows in bin order and each row's
	// columns ascending: most bins are never the source of a transition and
	// most rows lead to a few bins, so a bins×bins matrix, or even its
	// occupied rows, would be mostly zeros. start[from] counts the cells of
	// the rows before from, which is where row from's cells begin; a full
	// MaxBins matrix has 65,536 cells, one past what a uint16 holds.
	// rowSum and mask stay dense. A cell can decay to 0 but never goes away
	// before the next remap, so a row's non-zero counts are a subset of its
	// cells.
	cells   []float64
	start   []uint32
	rowSum  []float64
	mask    []uint64
	words   int // ceil(bins/64)
	lastBin int
	hasLast bool

	// incWeight implements exponential decay lazily: instead of scaling
	// every historical count down at each observation (O(bins²)), new
	// transitions are added with exponentially *growing* weight, keeping
	// all ratios identical. Counts are renormalized before the weight can
	// lose precision.
	incWeight float64

	observations int
}

// remapScratch is what remapRange copies the cells, the old bin centers and
// the mask into before clearing the matrix.
type remapScratch struct {
	vals []float64 // cells, then bin centers
	mask []uint64
}

// remapPool lends remapRange its *remapScratch. A remap is rare once a
// predictor's range has settled, so predictors share these buffers instead
// of each keeping a spare matrix resident, and a warm remap allocates
// nothing.
var remapPool sync.Pool

// New returns a predictor with the given number of value bins and decay
// factor applied to historical transition counts at every observation.
// bins < 2 and out-of-range decay fall back to the defaults; bins above
// MaxBins are clamped to it.
func New(bins int, decay float64) *Predictor {
	if bins < 2 {
		bins = DefaultBins
	}
	bins = min(bins, MaxBins)
	if decay <= 0 || decay > 1 {
		decay = DefaultDecay
	}
	p := &Predictor{bins: bins, decay: decay, words: (bins + 63) / 64}
	p.reset()
	return p
}

// reset empties the matrix. cells keeps its capacity, so the transitions a
// remap re-adds reuse it.
func (p *Predictor) reset() {
	if p.rowSum == nil {
		p.start = make([]uint32, p.bins)
		p.rowSum = make([]float64, p.bins)
		p.mask = make([]uint64, p.bins*p.words)
	} else {
		clear(p.start)
		clear(p.rowSum)
		clear(p.mask)
	}
	p.cells = p.cells[:0]
	p.hasLast = false
	p.incWeight = 1
}

// cell returns the index in cells that transition i -> j has, or takes
// when it is first seen, and whether it has been seen: the row's start plus
// the set bits before column j.
func (p *Predictor) cell(i, j int) (k int, seen bool) {
	w, bit := i*p.words+j>>6, uint64(1)<<(j&63)
	k = int(p.start[i]) + bits.OnesCount64(p.mask[w]&(bit-1))
	for _, m := range p.mask[i*p.words : w] {
		k += bits.OnesCount64(m)
	}
	return k, p.mask[w]&bit != 0
}

// add adds c to the count of transition i -> j, inserting its cell the
// first time the transition is seen.
func (p *Predictor) add(i, j int, c float64) {
	k, seen := p.cell(i, j)
	if !seen {
		p.insert(k)
		p.mask[i*p.words+j>>6] |= 1 << (j & 63)
		for r := i + 1; r < p.bins; r++ {
			p.start[r]++
		}
	}
	p.cells[k] += c
	p.rowSum[i] += c
}

// insert opens a zero cell at index k. Past the capacity it grows cells to
// the allocator's size class for one more cell, not by append's doubling:
// the point of storing only the transitions seen is that the heap holds no
// more than them.
func (p *Predictor) insert(k int) {
	n := len(p.cells)
	if n == cap(p.cells) {
		cells := slices.Grow([]float64(nil), n+1)
		p.cells = cells[:copy(cells[:n], p.cells)]
	}
	p.cells = p.cells[:n+1]
	copy(p.cells[k+1:], p.cells[k:n])
	p.cells[k] = 0
}

// rowCells returns row i's mask words and its cells, one per set bit in
// ascending column order. The cells alias the predictor's.
func (p *Predictor) rowCells(i int) (mask []uint64, cells []float64) {
	mask = p.mask[i*p.words : (i+1)*p.words]
	n := 0
	for _, m := range mask {
		n += bits.OnesCount64(m)
	}
	k := int(p.start[i])
	return mask, p.cells[k : k+n]
}

// Range returns the current discretization range [lo, hi].
func (p *Predictor) Range() (lo, hi float64) { return p.lo, p.hi }

// binOf maps a value to its bin index, clamping to the range edges.
func (p *Predictor) binOf(v float64) int {
	// The edge tests come first: past a capped range (see maxEdge), v−lo
	// can overflow.
	if p.hi <= p.lo || v <= p.lo {
		return 0
	}
	if v >= p.hi {
		return p.bins - 1
	}
	// lo < v < hi, but rounding can still carry v to bins.
	return min(int((v-p.lo)/(p.hi-p.lo)*float64(p.bins)), p.bins-1)
}

// binCenter returns the representative value of bin i.
func (p *Predictor) binCenter(i int) float64 {
	if p.hi <= p.lo {
		return p.lo
	}
	w := (p.hi - p.lo) / float64(p.bins)
	return p.lo + (float64(i)+0.5)*w
}

// maxEdge bounds how far from zero ensureRange moves a range edge. With
// both edges inside ±MaxFloat64/2 the width hi−lo is finite too, so a
// finite sample can never grow the range to ±Inf (which no snapshot JSON
// can carry); a sample beyond the cap lands in the edge bin.
const maxEdge = math.MaxFloat64 / 2

// ensureRange grows the discretization range to cover v, remapping existing
// transition counts onto the new bins (approximately, by bin centers).
func (p *Predictor) ensureRange(v float64) {
	if !p.rangeSet {
		// Seed a small symmetric range around the first value so early
		// samples land in distinct bins once fluctuation begins.
		c := min(max(v, -maxEdge), maxEdge)
		span := math.Abs(c) * 0.5
		if span == 0 {
			span = 1
		}
		p.lo, p.hi = max(c-span, -maxEdge), min(c+span, maxEdge)
		p.rangeSet = true
		return
	}
	if v >= p.lo && v <= p.hi {
		return
	}
	newLo, newHi := p.lo, p.hi
	span := p.hi - p.lo
	// Grow generously to avoid frequent remaps under a trending metric. Each
	// step moves the edge by at least one ulp: a range narrower than half
	// an ulp of its edge (only a crafted snapshot has one) would otherwise
	// round every step back onto the same edge and never cover v. An edge
	// stops at maxEdge, or at MaxFloat64 from the other edge when a restored
	// range already reaches past maxEdge (that subtraction is exact).
	lowest, highest := max(-maxEdge, newHi-math.MaxFloat64), min(maxEdge, newLo+math.MaxFloat64)
	for v < newLo && newLo > lowest {
		newLo = max(min(newLo-span, math.Nextafter(newLo, math.Inf(-1))), lowest)
		span = newHi - newLo
	}
	for v > newHi && newHi < highest {
		newHi = min(max(newHi+span, math.Nextafter(newHi, math.Inf(1))), highest)
		span = newHi - newLo
	}
	if newLo == p.lo && newHi == p.hi {
		return // already at the cap
	}
	p.remapRange(newLo, newHi)
}

// remapRange moves the learned counts onto the range [newLo, newHi]: it
// copies the cells, the mask and the old bin centers aside, clears the
// matrix in place, and re-adds each non-zero count at the bins of its old
// bin centers, in ascending [from][to] order. Bin centers keep their order
// under the new range, so each re-added cell lands at or after the last.
func (p *Predictor) remapRange(newLo, newHi float64) {
	sc, _ := remapPool.Get().(*remapScratch)
	if sc == nil {
		sc = new(remapScratch)
	}
	vals := append(sc.vals[:0], p.cells...)
	width := (p.hi - p.lo) / float64(p.bins)
	for i := range p.bins {
		vals = append(vals, p.lo+(float64(i)+0.5)*width)
	}
	mask := append(sc.mask[:0], p.mask...)
	old, centers := vals[:len(p.cells)], vals[len(p.cells):]
	hadLast := p.hasLast
	var lastCenter float64
	if hadLast {
		lastCenter = centers[p.lastBin]
	}
	p.lo, p.hi = newLo, newHi
	// The old counts come back at their own scale, so the weight the next
	// transition adds must stay where it was: reset would set it back to 1,
	// and the model would then barely learn until its next renormalize.
	inc := p.incWeight
	p.reset()
	p.incWeight = inc
	k := 0
	for i := range p.bins {
		from := p.binOf(centers[i])
		for w, m := range mask[i*p.words : (i+1)*p.words] {
			for ; m != 0; m &= m - 1 {
				if c := old[k]; c != 0 {
					p.add(from, p.binOf(centers[w<<6+bits.TrailingZeros64(m)]), c)
				}
				k++
			}
		}
	}
	// Restore the chain position under the new discretization — but only if
	// the chain had one going in. A position severed by Break must stay
	// severed: resurrecting it here would charge a phantom transition across
	// the very gap Break was called for.
	if hadLast {
		p.lastBin = p.binOf(lastCenter)
	}
	p.hasLast = hadLast
	sc.vals, sc.mask = vals, mask
	remapPool.Put(sc)
}

// Predict returns the model's prediction for the *next* value given the
// current chain position: the probability-weighted mean of destination bin
// centers. ok is false until the model has a position and at least one
// learned transition from it (an unseen state).
func (p *Predictor) Predict() (v float64, ok bool) {
	if !p.hasLast {
		return 0, false
	}
	sum := p.rowSum[p.lastBin]
	if sum <= 0 {
		return 0, false
	}
	// Only columns whose bit is set can hold a count, and the bits are
	// visited in ascending column order, so this sums exactly the terms a
	// walk over the whole row would, in the same order.
	mask, cells := p.rowCells(p.lastBin)
	var acc float64
	k := 0
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			if c := cells[k]; c > 0 {
				acc += c / sum * p.binCenter(w<<6+bits.TrailingZeros64(m))
			}
			k++
		}
	}
	return acc, true
}

// Observe consumes the next sample, returning the absolute prediction error
// for it (|predicted − actual|). When the model could not predict (cold
// start or unseen state), predicted=false and err is the model's fallback:
// the distance from the previous value (a naive last-value predictor), or 0
// on the very first sample.
func (p *Predictor) Observe(v float64) (predErr float64, predicted bool) {
	p.ensureRange(v)
	var prevCenter float64
	hadPrev := p.hasLast
	if hadPrev {
		prevCenter = p.binCenter(p.lastBin)
	}
	// Both differences are of finite values; the cap keeps an error between
	// values near ±MaxFloat64 from overflowing to +Inf.
	pred, ok := p.Predict()
	if ok {
		predErr = min(math.Abs(pred-v), math.MaxFloat64)
		predicted = true
	} else if hadPrev {
		predErr = min(math.Abs(prevCenter-v), math.MaxFloat64)
	}
	// Learn the transition prev -> current. Decay is applied lazily: new
	// counts carry exponentially growing weight instead of shrinking the
	// old ones, which preserves every probability ratio at O(1) cost.
	cur := p.binOf(v)
	if hadPrev {
		if p.decay < 1 {
			p.incWeight /= p.decay
			if p.incWeight > 1e12 {
				p.renormalize()
			}
		}
		p.add(p.lastBin, cur, p.incWeight)
	}
	p.lastBin = cur
	p.hasLast = true
	p.observations++
	return predErr, predicted
}

// Break severs the chain position without discarding learned transitions.
// The slave calls it after a long collection gap: the pre-gap "previous
// state" is stale, so predicting the next sample from it would charge the
// model a phantom transition across the gap, but the accumulated transition
// counts remain valid knowledge of the component's normal fluctuation.
func (p *Predictor) Break() {
	p.hasLast = false
	p.lastBin = 0
}

// renormalize rescales all counts so the incremental weight returns to 1,
// preserving every ratio. A row's total is re-added over its cells only:
// adding the zeros of the columns between them would change no bit. A
// restored total with no cells under it (within Validate's tolerance)
// becomes 0.
func (p *Predictor) renormalize() {
	inv := 1 / p.incWeight
	for i := range p.rowSum {
		if p.rowSum[i] == 0 {
			continue
		}
		p.rowSum[i] = 0
		_, cells := p.rowCells(i)
		for k := range cells {
			cells[k] *= inv
			p.rowSum[i] += cells[k]
		}
	}
	p.incWeight = 1
}

// Validate checks internal invariants; it is used by property tests.
func (p *Predictor) Validate() error {
	next := 0
	for i := range p.rowSum {
		n := 0
		for _, m := range p.mask[i*p.words : (i+1)*p.words] {
			n += bits.OnesCount64(m)
		}
		if int(p.start[i]) != next || next+n > len(p.cells) {
			return fmt.Errorf("markov: row %d of %d cells starts at cell %d of %d, want %d",
				i, n, p.start[i], len(p.cells), next)
		}
		cells := p.cells[next : next+n]
		next += n
		var sum float64
		for _, c := range cells {
			if c < 0 {
				return fmt.Errorf("markov: negative count in row %d", i)
			}
			sum += c
		}
		if !(math.Abs(sum-p.rowSum[i]) <= 1e-6*(1+sum)) { // negated so a NaN total fails too
			return fmt.Errorf("markov: row %d sum mismatch: %v vs cached %v", i, sum, p.rowSum[i])
		}
	}
	if next != len(p.cells) {
		return fmt.Errorf("markov: %d cells for %d set transitions", len(p.cells), next)
	}
	if p.rangeSet && p.hi <= p.lo {
		return errors.New("markov: inverted range")
	}
	return nil
}
