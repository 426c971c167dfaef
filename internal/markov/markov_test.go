package markov

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// NewDefault returns a predictor with default parameters.
func NewDefault() *Predictor { return New(DefaultBins, DefaultDecay) }

// Observations returns the number of samples the model has consumed.
func (p *Predictor) Observations() int { return p.observations }

// PredictionErrorAt replays a fresh predictor over vals and returns the
// prediction error at each step.
func PredictionErrorAt(vals []float64, bins int, decay float64) []float64 {
	p := New(bins, decay)
	errs := make([]float64, len(vals))
	for i, v := range vals {
		errs[i], _ = p.Observe(v)
	}
	return errs
}

// TransitionProb returns the learned probability of moving from the bin of
// value a to the bin of value b.
func (p *Predictor) TransitionProb(a, b float64) float64 {
	if !p.rangeSet {
		return 0
	}
	i, j := p.binOf(a), p.binOf(b)
	if p.rowSum[i] <= 0 {
		return 0
	}
	k, seen := p.cell(i, j)
	if !seen {
		return 0
	}
	return p.cells[k] / p.rowSum[i]
}

// RowDistribution returns the transition distribution out of the bin
// containing value v. The slice sums to 1 (or is nil for unseen states).
func (p *Predictor) RowDistribution(v float64) []float64 {
	if !p.rangeSet {
		return nil
	}
	i := p.binOf(v)
	if p.rowSum[i] <= 0 {
		return nil
	}
	out := make([]float64, p.bins)
	mask, cells := p.rowCells(i)
	k := 0
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			out[w<<6+bits.TrailingZeros64(m)] = cells[k] / p.rowSum[i]
			k++
		}
	}
	return out
}

func TestNewDefaults(t *testing.T) {
	p := New(0, -1)
	if p.bins != DefaultBins || p.decay != DefaultDecay {
		t.Errorf("fallback params = %d,%v", p.bins, p.decay)
	}
	if p.Observations() != 0 {
		t.Error("fresh model should have 0 observations")
	}
}

func TestColdStart(t *testing.T) {
	p := NewDefault()
	if _, ok := p.Predict(); ok {
		t.Error("Predict before any observation must report !ok")
	}
	err0, predicted := p.Observe(10)
	if predicted || err0 != 0 {
		t.Errorf("first observation: err=%v predicted=%v, want 0,false", err0, predicted)
	}
}

func TestLearnsPeriodicSignal(t *testing.T) {
	// A strictly periodic signal becomes perfectly predictable once the
	// cycle has been seen: the defining property FChain relies on to
	// filter change points caused by recurring workload fluctuation.
	p := New(20, 1.0)
	// A sawtooth is deterministic for an order-1 chain: every value has a
	// unique successor.
	period := []float64{10, 20, 30, 40, 50, 60}
	var warmup, steady float64
	var steadyN int
	for rep := 0; rep < 50; rep++ {
		for _, v := range period {
			e, _ := p.Observe(v)
			if rep < 3 {
				warmup += e
			} else if rep >= 40 {
				steady += e
				steadyN++
			}
		}
	}
	steadyMean := steady / float64(steadyN)
	if steadyMean > 2.0 {
		t.Errorf("steady-state prediction error = %v, want small", steadyMean)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestUnseenJumpHasHighError(t *testing.T) {
	p := New(20, 1.0)
	for rep := 0; rep < 100; rep++ {
		p.Observe(10 + math.Sin(float64(rep))*2)
	}
	// Fault-like excursion far outside learned behaviour.
	e, _ := p.Observe(500)
	if e < 100 {
		t.Errorf("prediction error on unseen jump = %v, want large", e)
	}
}

func TestRangeExpansion(t *testing.T) {
	p := New(10, 1.0)
	p.Observe(10)
	p.Observe(11)
	lo1, hi1 := p.Range()
	p.Observe(1000)
	lo2, hi2 := p.Range()
	if !(lo2 <= lo1 && hi2 >= hi1 && hi2 >= 1000) {
		t.Errorf("range did not expand: [%v,%v] -> [%v,%v]", lo1, hi1, lo2, hi2)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRemapPreservesMass(t *testing.T) {
	p := New(10, 1.0)
	vals := []float64{1, 2, 3, 2, 1, 2, 3, 2, 1}
	for _, v := range vals {
		p.Observe(v)
	}
	var before float64
	for _, s := range p.rowSum {
		before += s
	}
	p.Observe(1e6) // force a remap
	var after float64
	for _, s := range p.rowSum {
		after += s
	}
	// The remap itself must preserve mass; the final Observe adds one
	// transition.
	if math.Abs(after-(before+1)) > 1e-6 {
		t.Errorf("transition mass after remap = %v, want %v", after, before+1)
	}
}

// TestRemapKeepsLearning: a range remap re-adds the old counts at their
// own scale, so it must keep the weight the next transition adds. Trained
// on 50/60, grown by one 80, then shown a new 50/55 pattern, the default
// model must learn P(50→55) as well as one fed the same stream after an
// 80 had already grown its range. Resetting the weight to 1 left P(50→55)
// at 1.3e-9 against 0.394: each new transition weighed ~1e-9 of an old one.
func TestRemapKeepsLearning(t *testing.T) {
	stream := func(p *Predictor) {
		for i := 0; i < 20000; i++ {
			p.Observe(50 + 10*float64(i%2))
		}
		p.Observe(80)
		for i := 0; i < 500; i++ {
			p.Observe(50 + 5*float64(i%2))
		}
	}
	remapped := New(DefaultBins, DefaultDecay)
	stream(remapped)
	grownFirst := New(DefaultBins, DefaultDecay)
	grownFirst.Observe(50)
	grownFirst.Observe(80)
	lo, hi := grownFirst.Range()
	stream(grownFirst)
	if a, b := remapped.Range(); a != lo || b != hi {
		t.Fatalf("ranges differ: remapped [%v, %v], grown first [%v, %v]", a, b, lo, hi)
	}

	got, want := remapped.TransitionProb(50, 55), grownFirst.TransitionProb(50, 55)
	if want < 0.3 {
		t.Fatalf("grown-first P(50→55) = %v: the new pattern was not learned", want)
	}
	// The models differ only by the grown-first prefix, whose weight is
	// ~1e-9 of the last transition's; 1e-6 bounds that and float rounding.
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("P(50→55) after a remap = %v, want %v (range grown before training)", got, want)
	}
}

func TestTransitionProb(t *testing.T) {
	p := New(4, 1.0)
	// Build a range first, then a deterministic alternation.
	p.Observe(0)
	p.Observe(100)
	for i := 0; i < 20; i++ {
		p.Observe(0)
		p.Observe(100)
	}
	if got := p.TransitionProb(0, 100); got < 0.9 {
		t.Errorf("P(0->100) = %v, want ~1", got)
	}
	if got := p.TransitionProb(0, 0); got > 0.1 {
		t.Errorf("P(0->0) = %v, want ~0", got)
	}
}

func TestRowDistributionSumsToOne(t *testing.T) {
	p := New(8, 0.99)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p.Observe(rng.Float64() * 100)
	}
	dist := p.RowDistribution(50)
	if dist == nil {
		t.Fatal("expected a distribution for a visited state")
	}
	var sum float64
	for _, d := range dist {
		if d < 0 {
			t.Fatal("negative probability")
		}
		sum += d
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("row distribution sums to %v, want 1", sum)
	}
}

func TestRowDistributionUnseen(t *testing.T) {
	p := NewDefault()
	if p.RowDistribution(5) != nil {
		t.Error("distribution for untrained model should be nil")
	}
}

func TestPredictionErrorAt(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 50 + 10*math.Sin(float64(i)*math.Pi/10)
	}
	errs := PredictionErrorAt(vals, 20, 1.0)
	if len(errs) != len(vals) {
		t.Fatalf("length mismatch: %d vs %d", len(errs), len(vals))
	}
	head := 0.0
	for _, e := range errs[:20] {
		head += e
	}
	tail := 0.0
	for _, e := range errs[180:] {
		tail += e
	}
	if tail >= head {
		t.Errorf("prediction error should shrink with training: head=%v tail=%v", head, tail)
	}
}

func TestDecayForgetsOldBehaviour(t *testing.T) {
	// With decay, a regime change is eventually absorbed: after enough
	// samples in the new regime, its transitions dominate.
	p := New(20, 0.95)
	for i := 0; i < 200; i++ {
		p.Observe(10)
	}
	for i := 0; i < 200; i++ {
		p.Observe(90)
	}
	if got := p.TransitionProb(90, 90); got < 0.9 {
		t.Errorf("P(90->90) after regime change = %v, want ~1", got)
	}
}

// Property: the model never violates its internal invariants, for any input
// stream, and prediction errors are non-negative and finite.
func TestInvariantsProperty(t *testing.T) {
	f := func(raw []float64, binsRaw uint8) bool {
		bins := int(binsRaw%30) + 2
		p := New(bins, 0.99)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			v = math.Mod(v, 1e9)
			e, _ := p.Observe(v)
			if e < 0 || math.IsNaN(e) || math.IsInf(e, 0) {
				return false
			}
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: for a constant stream, prediction error converges to zero.
func TestConstantStreamProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := rng.Float64()*1000 - 500
		p := NewDefault()
		var last float64
		for i := 0; i < 50; i++ {
			last, _ = p.Observe(c)
		}
		return last < 1e-6*(1+math.Abs(c))+0.05*math.Abs(c)+0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
