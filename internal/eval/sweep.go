package eval

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"fchain/internal/apps"
	"fchain/internal/baseline"
	"fchain/internal/core"
)

// Row is one (system, fault) pair of a sweep; each seed 1..Sweep.Runs runs
// it once as an independent trial. A system is a paper benchmark or a
// generated mesh wrapped as a Benchmark.
type Row struct {
	Bench Benchmark
	Fault apps.FaultCase
	// SustainSec, when positive, overrides Sweep.Config.SustainSec
	// for this row's trials.
	SustainSec int
}

// Column is one named scheme applied to every completed trial of a sweep.
type Column struct {
	Name   string
	Scheme baseline.Scheme
	// Trial, when set, derives the trial the scheme sees from the one the
	// run produced. It receives a copy, so it may overwrite fields, but it
	// must not mutate anything they point to: every column shares them.
	Trial func(baseline.Trial) baseline.Trial
}

// schemeColumns names one column after each scheme.
func schemeColumns(schemes ...baseline.Scheme) []Column {
	cols := make([]Column, len(schemes))
	for i, s := range schemes {
		cols[i] = Column{Name: s.Name(), Scheme: s}
	}
	return cols
}

// Sweep is a fault-injection campaign: every row runs once per seed, and
// every column scores every trial that produced an SLO violation.
type Sweep struct {
	Rows    []Row
	Columns []Column
	Runs    int
	Config  RunConfig
}

// Cell aggregates one column over one row's completed trials.
type Cell struct {
	Outcome Outcome
	// FalseAlarms counts trials with an empty ground truth (false-alarm
	// traps) on which at least one culprit was blamed.
	FalseAlarms int
	// OnsetErrSum/OnsetErrN accumulate |earliest true-culprit onset −
	// injection| over trials with at least one true positive, for schemes
	// that report onsets.
	OnsetErrSum float64
	OnsetErrN   int
}

// OnsetErr returns the mean onset error and whether any trial produced one.
func (c Cell) OnsetErr() (float64, bool) {
	if c.OnsetErrN == 0 {
		return 0, false
	}
	return c.OnsetErrSum / float64(c.OnsetErrN), true
}

// RowResult is one row of a sweep.
type RowResult struct {
	Trials  int    // completed (violating) trials
	Skipped int    // runs without an SLO violation
	Cells   []Cell // one per column
}

// SweepResult holds every row of a sweep, in row order.
type SweepResult struct {
	Rows []RowResult
	// PerTrial is the mean wall time one column's scheme took on one trial:
	// the one machine-dependent number of a sweep, so no report prints it.
	PerTrial time.Duration
}

// Run executes every (row, seed) trial on Config.Workers goroutines; the
// worker that ran a trial also scores it against every column, so the
// trial's simulation and series are dropped as soon as it is scored.
// Results are assembled in (row, seed) order, so the result — and, on
// failure, the first hard error in that order — is exactly what a serial
// loop produces.
func (s Sweep) Run() (*SweepResult, error) {
	type slot struct {
		cells []Cell
		took  time.Duration
		err   error
	}
	slots := make([]slot, len(s.Rows)*max(s.Runs, 0))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := min(s.Config.workers(), len(slots)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sl := &slots[i]
				sl.cells, sl.took, sl.err = s.trial(s.Rows[i/s.Runs], int64(i%s.Runs)+1)
			}
		}()
	}
	for i := range slots {
		next <- i
	}
	close(next)
	wg.Wait()

	res := &SweepResult{Rows: make([]RowResult, len(s.Rows))}
	for i := range res.Rows {
		res.Rows[i].Cells = make([]Cell, len(s.Columns))
	}
	var took time.Duration
	var scored int
	for i, sl := range slots {
		rr := &res.Rows[i/s.Runs]
		var nv *ErrNoViolation
		switch {
		case errors.As(sl.err, &nv):
			rr.Skipped++
			continue
		case sl.err != nil:
			return nil, sl.err
		}
		rr.Trials++
		for c := range rr.Cells {
			rr.Cells[c].add(sl.cells[c])
		}
		took += sl.took
		scored += len(sl.cells)
	}
	if scored > 0 {
		res.PerTrial = took / time.Duration(scored)
	}
	return res, nil
}

// runTrial is how a sweep builds a trial; it is RunTrial, which tests
// replace with a memo so that sweeps sharing a trial build it once.
var runTrial = RunTrial

// trial runs one seed of a row and scores it against every column,
// returning one single-trial cell per column and the time the schemes took.
func (s Sweep) trial(row Row, seed int64) ([]Cell, time.Duration, error) {
	cfg := s.Config
	if row.SustainSec > 0 {
		cfg.SustainSec = row.SustainSec
	}
	tb, err := runTrial(row.Bench, row.Fault, seed, cfg)
	if err != nil {
		return nil, 0, err
	}
	cells := make([]Cell, len(s.Columns))
	start := time.Now()
	for i, col := range s.Columns {
		tr := *tb.Trial
		if col.Trial != nil {
			tr = col.Trial(tr)
		}
		culprits, onsets, err := blame(col.Scheme, &tr)
		if err != nil {
			return nil, 0, fmt.Errorf("eval: %s on %s/%s seed %d: %w", col.Name, row.Bench.Name, row.Fault.Name, seed, err)
		}
		cells[i] = score(culprits, onsets, tb)
	}
	return cells, time.Since(start), nil
}

// blame runs a scheme on a trial. The culprits' onsets are meaningful only
// when onsets is true: FChain diagnoses, the other schemes only name.
func blame(s baseline.Scheme, tr *baseline.Trial) (culprits []core.Culprit, onsets bool, err error) {
	if f, ok := s.(*baseline.FChain); ok {
		diag, err := f.Diagnose(tr)
		return diag.Culprits, true, err
	}
	names, err := s.Localize(tr)
	for _, n := range names {
		culprits = append(culprits, core.Culprit{Component: n})
	}
	return culprits, false, err
}

// score is the one scoring routine of every sweep: it turns one trial's
// culprits into a single-trial cell.
func score(culprits []core.Culprit, onsets bool, tb *TrialBundle) Cell {
	names := make([]string, len(culprits))
	for i, cu := range culprits {
		names[i] = cu.Component
	}
	c := Cell{Outcome: Score(names, tb.Truth)}
	if len(tb.Truth) == 0 && len(culprits) > 0 {
		c.FalseAlarms = 1
	}
	if !onsets || c.Outcome.TP == 0 {
		return c
	}
	truth := make(map[string]bool, len(tb.Truth))
	for _, t := range tb.Truth {
		truth[t] = true
	}
	best := int64(-1)
	for _, cu := range culprits {
		e := cu.Onset - tb.Inject
		if e < 0 {
			e = -e
		}
		if truth[cu.Component] && (best < 0 || e < best) {
			best = e
		}
	}
	c.OnsetErrSum, c.OnsetErrN = float64(best), 1
	return c
}

// add merges another cell's counts.
func (c *Cell) add(o Cell) {
	c.Outcome.Add(o.Outcome)
	c.FalseAlarms += o.FalseAlarms
	c.OnsetErrSum += o.OnsetErrSum
	c.OnsetErrN += o.OnsetErrN
}

// Report is a regenerated campaign artifact. Text is a pure function of
// the sweep's rows, columns and seeds, so it is byte-stable across machines
// and worker counts; PerTrial, the mean wall time one scheme took to
// localize one trial, is kept out of it.
type Report struct {
	Text     string
	PerTrial time.Duration
}

// report runs the sweep and renders it: head, then for each row the rowHead
// line — formatted from the row's benchmark name, fault name, trial count
// and skip count, in that order, so a format picks them by index — and,
// when any trial completed, body with one result per column.
func (s Sweep) report(head, rowHead string, body func(sb *strings.Builder, rs []SchemeResult)) (Report, error) {
	res, err := s.Run()
	if err != nil {
		return Report{}, err
	}
	var sb strings.Builder
	sb.WriteString(head)
	for i, rr := range res.Rows {
		row := s.Rows[i]
		fmt.Fprintf(&sb, rowHead, row.Bench.Name, row.Fault.Name, rr.Trials, rr.Skipped)
		if rr.Trials == 0 {
			continue
		}
		rs := make([]SchemeResult, len(rr.Cells))
		for c, cell := range rr.Cells {
			rs[c] = SchemeResult{Scheme: s.Columns[c].Name, Outcome: cell.Outcome}
		}
		body(&sb, rs)
	}
	return Report{Text: sb.String(), PerTrial: res.PerTrial}, nil
}
