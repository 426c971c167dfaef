package markov

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Snapshot is the complete serializable state of a Predictor. A monitor's
// full replication frame carries one per metric (internal/core encodes its
// fields as bits), and a slave's checkpoint file is that frame, so a
// restarted daemon or a promoted standby resumes with the learned
// normal-fluctuation model instead of cold-starting through the
// self-calibration period — without the model, every change after the
// restart is "never seen before" and would be flagged abnormal.
type Snapshot struct {
	Bins     int     `json:"bins"`
	Decay    float64 `json:"decay"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	RangeSet bool    `json:"range_set"`
	// Mask, Cells and RowSums are the transition counts as the predictor
	// holds them: Mask has ceil(Bins/64) words per row, bit to of row from
	// set once a count was added at [from][to], and Cells one count per set
	// bit, rows in bin order and columns ascending, a count that decayed to
	// 0 included. RowSums are the running row totals the predictor divides
	// by. They are accumulated one transition at a time, so re-adding a
	// row's cells would land a last bit away and every later prediction
	// error with it; a restored model predicts exactly as the one it was
	// taken from.
	Mask         []uint64  `json:"mask"`
	Cells        []float64 `json:"cells"`
	RowSums      []float64 `json:"row_sums"`
	LastBin      int       `json:"last_bin"`
	HasLast      bool      `json:"has_last"`
	IncWeight    float64   `json:"inc_weight"`
	Observations int       `json:"observations"`
}

// Snapshot captures the predictor's current state. The returned snapshot
// shares no storage with the predictor.
func (p *Predictor) Snapshot() *Snapshot {
	return &Snapshot{
		Bins:         p.bins,
		Decay:        p.decay,
		Lo:           p.lo,
		Hi:           p.hi,
		RangeSet:     p.rangeSet,
		Mask:         slices.Clone(p.mask),
		Cells:        slices.Clone(p.cells),
		RowSums:      slices.Clone(p.rowSum),
		LastBin:      p.lastBin,
		HasLast:      p.hasLast,
		IncWeight:    p.incWeight,
		Observations: p.observations,
	}
}

// FromSnapshot rebuilds a predictor from a snapshot, validating every
// invariant so a corrupted or hand-edited checkpoint cannot smuggle
// NaN/negative state into the model. An accepted snapshot is installed as
// it is, so the predictor's Snapshot returns it unchanged.
func FromSnapshot(s *Snapshot) (*Predictor, error) {
	if s == nil {
		return nil, errors.New("markov: nil snapshot")
	}
	if s.Bins < 2 || s.Bins > MaxBins {
		return nil, fmt.Errorf("markov: snapshot bins %d out of [2,%d]", s.Bins, MaxBins)
	}
	if s.Decay <= 0 || s.Decay > 1 || math.IsNaN(s.Decay) {
		return nil, fmt.Errorf("markov: snapshot decay %v out of (0,1]", s.Decay)
	}
	if s.RangeSet && (s.Hi <= s.Lo || math.IsNaN(s.Lo) || math.IsNaN(s.Hi) || math.IsInf(s.Hi-s.Lo, 0)) {
		return nil, fmt.Errorf("markov: snapshot range [%v, %v] invalid", s.Lo, s.Hi)
	}
	if s.HasLast && (s.LastBin < 0 || s.LastBin >= s.Bins) {
		return nil, fmt.Errorf("markov: snapshot last bin %d out of [0,%d)", s.LastBin, s.Bins)
	}
	if s.IncWeight <= 0 || math.IsNaN(s.IncWeight) || math.IsInf(s.IncWeight, 0) {
		return nil, fmt.Errorf("markov: snapshot incremental weight %v invalid", s.IncWeight)
	}
	if s.Observations < 0 {
		return nil, fmt.Errorf("markov: snapshot observations %d negative", s.Observations)
	}
	p := New(s.Bins, s.Decay)
	if len(s.Mask) != len(p.mask) {
		return nil, fmt.Errorf("markov: snapshot has %d mask words for %d bins", len(s.Mask), s.Bins)
	}
	if len(s.RowSums) != s.Bins {
		return nil, fmt.Errorf("markov: snapshot has %d row sums for %d bins", len(s.RowSums), s.Bins)
	}
	n := 0
	for i := range s.Bins {
		row := s.Mask[i*p.words : (i+1)*p.words]
		if row[p.words-1]>>(s.Bins-(p.words-1)*64) != 0 {
			return nil, fmt.Errorf("markov: snapshot row %d has a mask bit past %d bins", i, s.Bins)
		}
		p.start[i] = uint32(n)
		for _, m := range row {
			n += bits.OnesCount64(m)
		}
	}
	if n != len(s.Cells) {
		return nil, fmt.Errorf("markov: snapshot has %d cells for %d mask bits", len(s.Cells), n)
	}
	invalid := func(c float64) bool { return !(c >= 0) || math.IsInf(c, 0) } // negated so NaN fails too
	if i := slices.IndexFunc(s.Cells, invalid); i >= 0 {
		return nil, fmt.Errorf("markov: snapshot cell %d = %v invalid", i, s.Cells[i])
	}
	if i := slices.IndexFunc(s.RowSums, invalid); i >= 0 {
		return nil, fmt.Errorf("markov: snapshot row %d sums to %v", i, s.RowSums[i])
	}
	copy(p.mask, s.Mask)
	copy(p.rowSum, s.RowSums)
	// One allocation, sized to the allocator's size class as insert grows
	// cells, so a restored predictor holds what a trained one would.
	p.cells = append(slices.Grow(p.cells, n), s.Cells...)
	p.lo, p.hi = s.Lo, s.Hi
	p.rangeSet = s.RangeSet
	p.lastBin = s.LastBin
	p.hasLast = s.HasLast
	p.incWeight = s.IncWeight
	p.observations = s.Observations
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
