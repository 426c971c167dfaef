package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strconv"
	"sync"

	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/metric"
)

// verdict is what one measured Localize call returned, kept for the oracle.
type verdict struct {
	Cycle int
	TV    int64
	Diag  []byte // signature of the Diagnosis
	Names []string
}

// oracleReport is the outcome of comparing verdicts against the reference.
type oracleReport struct {
	Checked    int
	Mismatches int
	// TruthInFirst is 1 when the first verdict's culprits contain every
	// ground-truth component (or the workload is healthy), else 0.
	TruthInFirst float64
	FirstDiff    string
}

// signature renders what a Diagnosis decided as JSON: the culprits with
// their onsets, implicated metrics and reasons, the propagation chain with
// every selected change's metric, time, onset and direction, and the
// external-factor verdict. It leaves out the evidence behind the decisions —
// prediction errors and magnitudes, which a snapshot/restore round trip of
// the Markov model reproduces only to the last bit or two — and the
// sanitizer's quality counters, which restart when a component changes
// owner. Neither is a difference in the verdict.
func signature(d core.Diagnosis) []byte {
	culprits := append([]core.Culprit(nil), d.Culprits...)
	for i := range culprits {
		culprits[i].Confidence = 0
	}
	chain := append([]core.ComponentReport(nil), d.Chain...)
	for i := range chain {
		chain[i].Quality = core.DataQuality{}
		changes := append([]core.AbnormalChange(nil), chain[i].Changes...)
		for j := range changes {
			changes[j].PredErr, changes[j].Expected, changes[j].Magnitude = 0, 0, 0
		}
		chain[i].Changes = changes
	}
	d.Culprits, d.Chain = culprits, chain
	out, err := json.Marshal(d)
	if err != nil {
		return []byte("unmarshalable diagnosis: " + err.Error())
	}
	return out
}

// pickChecks chooses which cycles the reference re-computes: the first, the
// last, and evenly spaced ones in between, at most max in all. The batch
// reference costs a full selection pass per check, so checking every cycle
// would take longer than the measurement itself.
func pickChecks(n, max int) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		idx := i * (n - 1) / (max - 1)
		if len(out) == 0 || out[len(out)-1] != idx {
			out = append(out, idx)
		}
	}
	return out
}

// verify feeds an in-process core.Localizer — the batch kernel, whatever the
// cluster ran — exactly the samples the cluster ingested, and compares its
// Diagnosis with the cluster's at the checked cycles. It runs after the
// measured phase, outside every timed region.
func verify(in *inputs, cfg core.Config, deps *depgraph.Graph, verdicts []verdict, maxChecks int) oracleReport {
	rep := oracleReport{TruthInFirst: 1}
	if len(verdicts) == 0 {
		return rep
	}
	cfg.Streaming = false
	ref := core.NewLocalizer(cfg, in.comps)
	fed := in.first // next virtual second the reference has not seen
	feedTo := func(upTo int64) {
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for t := fed; t <= upTo; t++ {
					for ci := w; ci < len(in.comps); ci += workers {
						comp := in.comps[ci]
						cols := in.cols[comp]
						for ki, k := range metric.Kinds {
							_ = ref.Ingest(comp, t, k, in.value(cols, ki, t))
						}
					}
				}
			}(w)
		}
		wg.Wait()
		fed = upTo + 1
	}
	for _, idx := range pickChecks(len(verdicts), maxChecks) {
		v := verdicts[idx]
		feedTo(v.TV)
		want := signature(ref.Localize(v.TV, deps))
		rep.Checked++
		if !bytes.Equal(want, v.Diag) {
			rep.Mismatches++
			if rep.FirstDiff == "" {
				rep.FirstDiff = "cycle " + strconv.Itoa(v.Cycle) + ": cluster " + string(v.Diag) + " reference " + string(want)
			}
		}
	}
	first := make(map[string]bool, len(verdicts[0].Names))
	for _, n := range verdicts[0].Names {
		first[n] = true
	}
	for _, t := range in.truth {
		if !first[t] {
			rep.TruthInFirst = 0
		}
	}
	return rep
}
