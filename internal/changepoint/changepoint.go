// Package changepoint implements the change point detection machinery used
// by FChain and by the PAL-style baselines.
//
// The detector is the classic "CUSUM + Bootstrap" scheme (Basseville &
// Nikiforov; Taylor's change-point analysis, cited as [21] in the paper):
// a segment's cumulative sums of deviations from the mean peak at a change
// point, and a bootstrap over shuffled copies of the segment estimates the
// confidence that the observed peak is not random. Detected segments are
// split recursively. On top of the raw detector the package provides the
// magnitude-outlier filter (from PAL [13]) and the tangent-based rollback
// that FChain uses to locate the precise onset of an abnormal change
// (paper §II-B).
package changepoint

import (
	"math"
	"math/rand"

	"fchain/internal/timeseries"
)

// Point is a detected change point.
type Point struct {
	Index      int     // sample index within the analyzed window
	Confidence float64 // bootstrap confidence in [0,1]
	Magnitude  float64 // |mean after − mean before|
	Before     float64 // mean of the segment before the point
	After      float64 // mean of the segment after the point
}

// Config controls detection.
type Config struct {
	// Bootstraps is the number of bootstrap reshuffles per segment
	// (default 200).
	Bootstraps int
	// Confidence is the minimum bootstrap confidence to accept a change
	// point (default 0.95).
	Confidence float64
	// MinSegment is the smallest segment (in samples) that is still
	// searched for further change points (default 5).
	MinSegment int
	// Rand supplies the bootstrap shuffles; a deterministic source is used
	// when nil. Ignored when Thresholds is set.
	Rand *rand.Rand
	// Thresholds, when positive, replaces the per-query bootstrap with the
	// precomputed null-distribution tables (tables.go): the observed CUSUM
	// range is normalized by σ̂√n and ranked against Thresholds fixed-seed
	// simulated null samples for the segment's length. Detection then does
	// no resampling and no RNG draws at query time — it is a pure function
	// of the window contents, which is the property streaming selection
	// relies on — at the same 1/Thresholds confidence granularity the
	// bootstrap had. Zero keeps the classic bootstrap (the PAL/CUSUM
	// baselines stay on it so the paper-faithful comparison schemes are
	// untouched).
	Thresholds int
}

func (c Config) withDefaults() Config {
	if c.Bootstraps <= 0 {
		c.Bootstraps = 200
	}
	if c.Confidence <= 0 || c.Confidence > 1 {
		c.Confidence = 0.95
	}
	if c.MinSegment < 3 {
		c.MinSegment = 5
	}
	if c.Rand == nil && c.Thresholds <= 0 {
		c.Rand = rand.New(rand.NewSource(1))
	}
	return c
}

// Scratch holds the reusable working memory of one detection caller: the
// bootstrap shuffle buffer, the detected/filtered point slices, and the null
// tables it has already looked up. A zero Scratch is ready to use; after the
// first few calls warm its buffers, detection and outlier filtering allocate
// nothing. A Scratch is owned by one goroutine at a time — the parallel
// analysis engine keeps one per worker. Slices returned by the scratch-based
// methods alias the scratch and are invalidated by its next use.
type Scratch struct {
	shuffled []float64
	points   []Point
	outliers []Point
	mags     []float64

	// tables[n] is nullTable(n, tablesK), filled on first use: a slice
	// index in front of the process-wide cache's interface-keyed load.
	tables  [][]float64
	tablesK int
}

// Detect finds change points in vals using CUSUM + bootstrap with recursive
// segmentation, returning them in increasing index order.
func Detect(vals []float64, cfg Config) []Point {
	var sc Scratch
	return sc.Detect(vals, cfg)
}

// Detect is the scratch-reusing variant of the package-level Detect: the
// returned slice is backed by the scratch and only valid until its next
// Detect call.
func (sc *Scratch) Detect(vals []float64, cfg Config) []Point {
	cfg = cfg.withDefaults()
	if cfg.Thresholds <= 0 && cap(sc.shuffled) < len(vals) {
		sc.shuffled = make([]float64, len(vals))
	}
	sc.points = sc.points[:0]
	if len(vals) >= cfg.MinSegment {
		sc.detectSegment(vals, 0, timeseries.Mean(vals), cfg)
	}
	out := sc.points
	// Insertion sort: point counts are small, indices are unique (segments
	// are disjoint), and sort.Slice would box its argument — the only
	// allocation left on the hot detection path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Index < out[j-1].Index; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// detectSegment searches vals, whose mean m the caller has already computed
// (timeseries.Mean's summation, bit for bit), and recurses into both sides
// of an accepted change point. One walk per segment yields everything the
// test needs; only an accepted point costs a second pass, over the after
// side, whose mean is the right child's m.
func (sc *Scratch) detectSegment(vals []float64, offset int, m float64, cfg Config) {
	if len(vals) < cfg.MinSegment {
		return
	}
	w := cusumWalk(vals, m)
	idx := w.peak
	if idx <= 0 || idx >= len(vals)-1 {
		return
	}
	var conf float64
	if cfg.Thresholds > 0 {
		sd := math.Sqrt(w.sumSq / float64(len(vals)))
		conf = rankConfidence(w.sdiff, sd, len(vals), sc.nullTable(len(vals), cfg.Thresholds))
	} else {
		conf = bootstrapConfidence(vals, w.sdiff, cfg, sc.shuffled[:len(vals)])
	}
	if conf < cfg.Confidence {
		return
	}
	before := w.sumToPeak / float64(idx)
	after := timeseries.Mean(vals[idx:])
	sc.points = append(sc.points, Point{
		Index:      offset + idx,
		Confidence: conf,
		Magnitude:  math.Abs(after - before),
		Before:     before,
		After:      after,
	})
	sc.detectSegment(vals[:idx], offset, before, cfg)
	sc.detectSegment(vals[idx:], offset+idx, after, cfg)
}

// nullTable is the package-level nullTable read through the scratch's
// per-length slice.
func (sc *Scratch) nullTable(n, k int) []float64 {
	if k != sc.tablesK {
		clear(sc.tables)
		sc.tablesK = k
	}
	if n >= len(sc.tables) {
		sc.tables = append(sc.tables, make([][]float64, n+1-len(sc.tables))...)
	}
	tbl := sc.tables[n]
	if tbl == nil {
		tbl = nullTable(n, k)
		sc.tables[n] = tbl
	}
	return tbl
}

// walk is what one CUSUM pass over a segment learns.
type walk struct {
	peak      int     // index of the maximum |CUSUM|: the change follows sample peak-1
	sdiff     float64 // CUSUM range (max − min), the statistic tested for significance
	sumSq     float64 // Σ(v − m)², timeseries.Std's sum of squares
	sumToPeak float64 // Σ vals[:peak] in index order, timeseries.Mean's numerator
}

// cusumWalk walks the CUSUM of vals around their mean m once. Every sum is
// accumulated in index order from zero, exactly as timeseries.Mean and
// timeseries.Std do, so the standard deviation and the before-mean it
// yields carry the same bits as those functions would return.
//
// The peak is the first index at which |CUSUM| reaches its maximum. That
// maximum is either the largest CUSUM value or the negated smallest, so
// the walk records where each extreme was first reached and picks between
// them at the end (the earlier one on a tie) instead of testing |CUSUM|
// at every sample. A CUSUM that never leaves zero has no peak.
func cusumWalk(vals []float64, m float64) walk {
	var (
		w                  walk
		s, sum             float64
		maxS               = math.Inf(-1)
		minS               = math.Inf(1)
		maxAt, minAt       int
		sumAtMax, sumAtMin float64
	)
	for i, v := range vals {
		d := v - m
		s += d
		w.sumSq += d * d
		sum += v
		if s > maxS {
			maxS, maxAt, sumAtMax = s, i+1, sum // change occurs after sample i
		}
		if s < minS {
			minS, minAt, sumAtMin = s, i+1, sum
		}
	}
	w.sdiff = maxS - minS
	// Either test for the maximum implies it is positive: maxS ≥ minS, and
	// on a tie the minimum moved after the first sample.
	if hi, lo := maxS, -minS; hi > lo || (hi == lo && maxAt < minAt) {
		w.peak, w.sumToPeak = maxAt, sumAtMax
	} else if lo > 0 {
		w.peak, w.sumToPeak = minAt, sumAtMin
	}
	return w
}

// cusumPeak returns the index of the maximum |CUSUM| and the CUSUM range
// (max − min), the statistic bootstrapped for significance.
func cusumPeak(vals []float64) (idx int, sdiff float64) {
	w := cusumWalk(vals, timeseries.Mean(vals))
	return w.peak, w.sdiff
}

// bootstrapConfidence estimates the fraction of random reorderings of vals
// whose CUSUM range falls below the observed one. shuffled is a
// caller-provided resampling buffer of len(vals).
func bootstrapConfidence(vals []float64, observed float64, cfg Config, shuffled []float64) float64 {
	if observed == 0 {
		return 0
	}
	copy(shuffled, vals)
	below := 0
	for b := 0; b < cfg.Bootstraps; b++ {
		cfg.Rand.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if _, sd := cusumPeak(shuffled); sd < observed {
			below++
		}
	}
	return float64(below) / float64(cfg.Bootstraps)
}

// SelectOutliers keeps only change points whose magnitude is an outlier
// among all detected change points of the window: magnitude > mean +
// sigma*stddev of the magnitudes (PAL's magnitude-based filter; sigma is
// typically 1.0–2.0). With fewer than 3 candidates all are kept, since no
// meaningful outlier statistics exist.
func SelectOutliers(points []Point, sigma float64) []Point {
	var sc Scratch
	return sc.SelectOutliers(points, sigma)
}

// SelectOutliers is the scratch-reusing variant of the package-level
// SelectOutliers: the returned slice is backed by the scratch and only valid
// until its next SelectOutliers call.
func (sc *Scratch) SelectOutliers(points []Point, sigma float64) []Point {
	if len(points) < 3 {
		out := append(sc.outliers[:0], points...)
		sc.outliers = out
		return out
	}
	mags := sc.mags[:0]
	for _, p := range points {
		mags = append(mags, p.Magnitude)
	}
	sc.mags = mags
	mean := timeseries.Mean(mags)
	sd := timeseries.Std(mags)
	thresh := mean + sigma*sd
	out := sc.outliers[:0]
	for _, p := range points {
		if p.Magnitude > thresh {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		// Degenerate distribution (all magnitudes similar): fall back to
		// the largest.
		best := points[0]
		for _, p := range points[1:] {
			if p.Magnitude > best.Magnitude {
				best = p
			}
		}
		out = append(out, best)
	}
	sc.outliers = out
	return out
}

// RollbackOnset walks an abnormal change point backwards to the beginning of
// the fault manifestation (paper §II-B): starting from the abnormal point,
// compare the tangent (local slope of the smoothed series) at the current
// point with the tangent at its preceding change point; while they are close
// (difference < tol, e.g. 0.1, relative to the local value scale), roll back
// to the preceding point. Returns the sample index of the manifestation
// onset.
//
// vals is the (smoothed) window; points are all detected change points in
// increasing index order; abnormalIdx is the index *within points* of the
// selected abnormal change point.
func RollbackOnset(vals []float64, points []Point, abnormalIdx int, tol float64) int {
	if abnormalIdx < 0 || abnormalIdx >= len(points) {
		return 0
	}
	if tol <= 0 {
		tol = 0.1
	}
	cur := abnormalIdx
	for cur > 0 {
		prev := cur - 1
		tanCur := timeseries.SlopeAt(vals, points[cur].Index, 2)
		tanPrev := timeseries.SlopeAt(vals, points[prev].Index, 2)
		// Compare tangents relative to their own scale, so tol is unit-free
		// across metrics (bytes/s vs percent).
		scale := math.Max(math.Abs(tanCur), math.Abs(tanPrev))
		if scale == 0 {
			scale = 1
		}
		if math.Abs(tanCur-tanPrev)/scale >= tol {
			break
		}
		cur = prev
	}
	// Refine to the sample level: recursive CUSUM segmentation rarely
	// leaves a change point exactly at the foot of a gradual ramp, so walk
	// backwards while the local slope keeps the onset's direction and a
	// substantial share of its steepness.
	idx := points[cur].Index
	ref := timeseries.SlopeAt(vals, idx, 2)
	base := points[cur].Before
	shift := points[cur].After - base
	if ref != 0 {
		for idx > 0 {
			if timeseries.SlopeAt(vals, idx-1, 2)/ref < 0.3 {
				break
			}
			// The onset cannot precede the point where the metric left its
			// pre-change level: without this, a workload rise of similar
			// slope just before the fault would absorb the walk.
			if shift != 0 && (vals[idx-1]-base)/shift < 0.03 {
				break
			}
			idx--
		}
	}
	return idx
}
