package markov

import (
	"errors"
	"fmt"
	"math"
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
	Bins     int         `json:"bins"`
	Decay    float64     `json:"decay"`
	Lo       float64     `json:"lo"`
	Hi       float64     `json:"hi"`
	RangeSet bool        `json:"range_set"`
	Counts   [][]float64 `json:"counts,omitempty"`
	// RowSums carries the running row totals the predictor divides by. They
	// are accumulated one transition at a time, so re-adding a row's counts
	// left to right lands a last bit away and every later prediction error
	// with it; a restored model must predict exactly as the one it was taken
	// from. Absent (older checkpoints) the totals are re-added as before.
	RowSums      []float64 `json:"row_sums,omitempty"`
	LastBin      int       `json:"last_bin"`
	HasLast      bool      `json:"has_last"`
	IncWeight    float64   `json:"inc_weight"`
	Observations int       `json:"observations"`
}

// Snapshot captures the predictor's current state. The returned snapshot
// shares no storage with the predictor.
func (p *Predictor) Snapshot() *Snapshot {
	s := &Snapshot{
		Bins:         p.bins,
		Decay:        p.decay,
		Lo:           p.lo,
		Hi:           p.hi,
		RangeSet:     p.rangeSet,
		LastBin:      p.lastBin,
		HasLast:      p.hasLast,
		IncWeight:    p.incWeight,
		Observations: p.observations,
	}
	// Only rows with a non-zero total are stored, each expanded to bins
	// columns: a full 40×40 matrix, the every-row-occupied upper bound,
	// would bloat every checkpoint with zeros. nil rows restore as empty
	// rows.
	s.Counts = make([][]float64, p.bins)
	for i := range s.Counts {
		if p.rowSum[i] == 0 {
			continue
		}
		s.Counts[i] = p.appendRow(nil, i)
	}
	s.RowSums = append([]float64(nil), p.rowSum...)
	return s
}

// FromSnapshot rebuilds a predictor from a snapshot, validating every
// invariant so a corrupted or hand-edited checkpoint cannot smuggle
// NaN/negative state into the model.
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
	if len(s.Counts) > s.Bins {
		return nil, fmt.Errorf("markov: snapshot has %d rows for %d bins", len(s.Counts), s.Bins)
	}
	if s.RowSums != nil && len(s.RowSums) != s.Bins {
		return nil, fmt.Errorf("markov: snapshot has %d row sums for %d bins", len(s.RowSums), s.Bins)
	}
	p := New(s.Bins, s.Decay)
	// Size cells for every positive count at once, to the allocator's size
	// class as insert grows it: insert would otherwise copy them once per
	// size class. Counts are added in ascending [from][to] order, so each
	// cell lands at the end.
	n := 0
	for _, row := range s.Counts {
		for _, c := range row[:min(len(row), s.Bins)] {
			if c > 0 {
				n++
			}
		}
	}
	p.cells = slices.Grow(p.cells, n)
	p.lo, p.hi = s.Lo, s.Hi
	p.rangeSet = s.RangeSet
	p.lastBin = s.LastBin
	p.hasLast = s.HasLast
	p.incWeight = s.IncWeight
	p.observations = s.Observations
	for i, row := range s.Counts {
		if row == nil {
			continue
		}
		if len(row) != s.Bins {
			return nil, fmt.Errorf("markov: snapshot row %d has %d columns for %d bins", i, len(row), s.Bins)
		}
		for j, c := range row {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("markov: snapshot count [%d][%d]=%v invalid", i, j, c)
			}
			if c > 0 {
				p.add(i, j, c)
			}
		}
		// Snapshot omits a row whose total is zero, so a row holding counts
		// under a zero total would not survive the next snapshot; a predictor
		// never produces one.
		if s.RowSums != nil && s.RowSums[i] == 0 && p.rowSum[i] != 0 {
			return nil, fmt.Errorf("markov: snapshot row %d holds counts but sums to 0", i)
		}
	}
	if s.RowSums != nil {
		copy(p.rowSum, s.RowSums) // Validate holds them to the counts just loaded
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
