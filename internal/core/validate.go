package core

import (
	"fmt"

	"fchain/internal/metric"
)

// Adjuster is the dynamic resource-scaling surface that online pinpointing
// validation drives (paper §II-A, following PREPARE [20]): scale the
// implicated resources of pinpointed components, let the system run, and
// observe the impact on the SLO. cloudsim.Sim satisfies this interface; a
// production implementation would wrap the hypervisor's resource-control
// API.
type Adjuster interface {
	// ScaleResource scales the resource underlying metric kind k on the
	// component by factor.
	ScaleResource(component string, k metric.Kind, factor float64) error
	// Now returns the current time (seconds).
	Now() int64
	// RunUntil advances the system to time t.
	RunUntil(t int64)
	// SLOMetric reports the mean violation magnitude over [from, to) —
	// e.g. mean response time for a latency SLO. Validation only compares
	// it across trials, so any monotone badness measure works.
	SLOMetric(from, to int64) float64
}

// ValidationResult records the outcome of validating one culprit.
type ValidationResult struct {
	Culprit   Culprit `json:"culprit"`
	Confirmed bool    `json:"confirmed"`
	// Metric is the SLO violation magnitude observed in the trial that
	// scaled only this culprit (low = relieving it helped).
	Metric float64 `json:"metric"`
	// Inconclusive reports that the control trial showed no violation
	// pressure to measure improvements against, so every culprit is kept.
	Inconclusive bool `json:"inconclusive,omitempty"`
}

const (
	// validationScale is the resource scale-up factor applied during online
	// validation.
	validationScale = 3
	// validationSignificance is the minimum relative improvement of the SLO
	// metric (vs the unscaled control trial) that scaling a culprit alone
	// must achieve for the culprit to be confirmed.
	validationSignificance = 0.25
)

// ValidationObserve is how long (seconds) each validation trial watches the
// SLO after scaling, matching Table II's ~30 s per validated component.
const ValidationObserve = 30

// Validate runs online pinpointing validation on the diagnosis, following
// the paper's recipe ("adjust those metrics on the faulty components ...
// observing the resource adjustment impact to the application's SLO
// violation status", §II-A) with a differential twist that handles
// concurrent faults: each culprit is judged by how much relieving *it
// alone* improves the SLO metric relative to an unscaled control trial.
// A true culprit of a concurrent pair cannot clear the violation by itself,
// but it measurably improves the SLO; a falsely accused victim changes
// nothing.
//
//  1. Control trial (nothing scaled) and full trial (every pinpointed
//     culprit scaled) bracket the achievable SLO range.
//  2. Solo trials: scale only one culprit. A culprit whose solo relief
//     improves the SLO by at least validationSignificance relative to
//     the control is confirmed (parallel concurrent faults each improve
//     the SLO partially on their own).
//  3. Leave-one-out trials: scale every culprit but one. When the full
//     trial improves the SLO, a culprit whose omission gives back at least
//     validationSignificance of that improvement is confirmed (serial
//     concurrent faults on one path improve nothing solo, but their
//     omission breaks the joint recovery).
//
// A culprit confirmed by neither test changed nothing in any trial — a
// false alarm — and is removed. When the control itself shows no violation
// pressure (the anomaly subsided), validation is inconclusive and every
// culprit is kept.
//
// Each trial needs a fresh system from mk (in simulation, a clone; in
// production, the live system with later rollback) and costs
// ValidationObserve observed seconds, matching the paper's ~30 s per
// validated component (Table II).
func Validate(mk func() (Adjuster, error), diag Diagnosis) ([]ValidationResult, error) {
	if len(diag.Culprits) == 0 {
		return nil, nil
	}

	// trial scales the culprits selected by pick and measures the SLO.
	trial := func(pick func(i int) bool) (float64, error) {
		sys, err := mk()
		if err != nil {
			return 0, fmt.Errorf("core: validation trial: %w", err)
		}
		for i, c := range diag.Culprits {
			if !pick(i) {
				continue
			}
			// Scale every resource of the culprit: the diagnosis names
			// the component; relieving all of its resources is the
			// strongest intervention the trial can make. (NetOut and
			// DiskWrite share hardware with NetIn and DiskRead.)
			for _, k := range []metric.Kind{metric.CPU, metric.Memory, metric.NetIn, metric.DiskRead} {
				if err := sys.ScaleResource(c.Component, k, validationScale); err != nil {
					return 0, fmt.Errorf("core: scale %s/%s: %w", c.Component, k, err)
				}
			}
		}
		start := sys.Now()
		end := start + int64(ValidationObserve)
		sys.RunUntil(end)
		// Allow a settling margin: queues built before scaling take a few
		// seconds to react even when the right component is relieved.
		settle := start + int64(ValidationObserve)/3
		return sys.SLOMetric(settle, end), nil
	}

	control, err := trial(func(int) bool { return false })
	if err != nil {
		return nil, err
	}
	results := make([]ValidationResult, 0, len(diag.Culprits))
	if control <= 0 {
		// No violation pressure left to measure against: inconclusive.
		for _, c := range diag.Culprits {
			results = append(results, ValidationResult{
				Culprit: c, Confirmed: true, Metric: control, Inconclusive: true,
			})
		}
		return results, nil
	}
	full, err := trial(func(int) bool { return true })
	if err != nil {
		return nil, err
	}
	fullGain := control - full
	fullImproves := fullGain/control >= validationSignificance
	for i, c := range diag.Culprits {
		solo, err := trial(func(j int) bool { return j == i })
		if err != nil {
			return nil, err
		}
		confirmed := (control-solo)/control >= validationSignificance
		if !confirmed && fullImproves && len(diag.Culprits) > 1 {
			loo, err := trial(func(j int) bool { return j != i })
			if err != nil {
				return nil, err
			}
			confirmed = (loo - full) >= validationSignificance*fullGain
		}
		results = append(results, ValidationResult{
			Culprit:   c,
			Confirmed: confirmed,
			Metric:    solo,
		})
	}
	return results, nil
}

// ApplyValidation returns a copy of the diagnosis retaining only confirmed
// culprits (the "FChain+VAL" configuration of Fig. 11).
func ApplyValidation(diag Diagnosis, results []ValidationResult) Diagnosis {
	confirmed := make(map[string]bool, len(results))
	for _, r := range results {
		if r.Confirmed {
			confirmed[r.Culprit.Component] = true
		}
	}
	out := diag
	out.Culprits = nil
	for _, c := range diag.Culprits {
		if confirmed[c.Component] {
			c.Validated = true
			out.Culprits = append(out.Culprits, c)
		}
	}
	return out
}
