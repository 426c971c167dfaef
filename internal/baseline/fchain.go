package baseline

import (
	"fmt"

	"fchain/internal/core"
	"fchain/internal/metric"
)

// FChain adapts the real FChain pipeline (internal/core) to the Scheme
// interface so the evaluation harness can run it side by side with the
// baselines. When Validate is set, online pinpointing validation runs on
// the trial's live simulation (the FChain+VAL configuration of Fig. 11).
type FChain struct {
	// Config overrides FChain parameters; zero fields take the paper's
	// defaults. Trial.LookBack always overrides the window.
	Config core.Config
	// Validate enables online pinpointing validation.
	Validate bool
}

var _ Scheme = (*FChain)(nil)

// Name implements Scheme.
func (f *FChain) Name() string {
	if f.Validate {
		return "fchain+val"
	}
	return "fchain"
}

// Localize implements Scheme.
func (f *FChain) Localize(tr *Trial) ([]string, error) {
	diag, err := f.Diagnose(tr)
	if err != nil {
		return nil, err
	}
	return diag.CulpritNames(), nil
}

// Diagnose runs the pipeline and returns the full diagnosis (used by the
// figure-level reporting, which needs onsets and reasons, not just names).
func (f *FChain) Diagnose(tr *Trial) (core.Diagnosis, error) {
	cfg := f.Config
	cfg.LookBack = tr.LookBack
	loc := core.NewLocalizer(cfg, tr.Components)
	for _, comp := range tr.Components {
		for _, k := range metric.Kinds {
			s := tr.SeriesOf(comp, k)
			if s == nil {
				continue
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tr.TV; i++ {
				if err := loc.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					return core.Diagnosis{}, fmt.Errorf("baseline: feed %s/%s: %w", comp, k, err)
				}
			}
		}
	}
	diag := loc.Localize(tr.TV, tr.Deps)
	if !f.Validate || len(diag.Culprits) == 0 {
		return diag, nil
	}
	if tr.Sim == nil {
		return core.Diagnosis{}, fmt.Errorf("baseline: fchain+val needs a live simulation in the trial")
	}
	results, err := core.Validate(func() (core.Adjuster, error) {
		return tr.Sim.Clone(), nil
	}, diag)
	if err != nil {
		return core.Diagnosis{}, fmt.Errorf("baseline: validation: %w", err)
	}
	return core.ApplyValidation(diag, results), nil
}

// FixedFilter is baseline 6: FChain's pipeline with a fixed prediction
// error filtering threshold instead of the burstiness-adaptive expected
// error. A single absolute threshold cannot fit metrics of different scales
// and burstiness at once, which is what Fig. 12 demonstrates.
type FixedFilter struct {
	Threshold float64
	Config    core.Config
}

var _ Scheme = (*FixedFilter)(nil)

// Name implements Scheme.
func (f *FixedFilter) Name() string { return fmt.Sprintf("fixed(t=%.2f)", f.Threshold) }

// Localize implements Scheme.
func (f *FixedFilter) Localize(tr *Trial) ([]string, error) {
	cfg := f.Config
	cfg.FixedThreshold = f.Threshold
	inner := &FChain{Config: cfg}
	return inner.Localize(tr)
}

// FixedFilterSweep returns FixedFilter schemes across thresholds.
func FixedFilterSweep(thresholds []float64) []Scheme {
	out := make([]Scheme, len(thresholds))
	for i, t := range thresholds {
		out[i] = &FixedFilter{Threshold: t}
	}
	return out
}
