package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"fchain/internal/apps"
	"fchain/internal/core"
	"fchain/internal/golden"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// overloadGoldenReport is the committed JSON shape for the degraded-mode
// golden: the verdict, the full coverage/degradation picture, and the
// normalized master trace.
type overloadGoldenReport struct {
	TV                 int64               `json:"tv"`
	Verdict            string              `json:"verdict"`
	Culprits           []string            `json:"culprits"`
	External           bool                `json:"external"`
	SlavesAnswered     int                 `json:"slaves_answered"`
	SlavesTotal        int                 `json:"slaves_total"`
	ComponentsReported int                 `json:"components_reported"`
	ComponentsKnown    int                 `json:"components_known"`
	Degraded           bool                `json:"degraded"`
	Truncated          bool                `json:"truncated"`
	MissingComponents  []string            `json:"missing_components"`
	Quarantined        map[string][]string `json:"quarantined_streams"`
	Errors             []string            `json:"errors"`
	Trace              *obs.Trace          `json:"trace"`
}

// runOverloadGoldenScenario replays the canonical degraded localization: the
// RUBiS CPU-hog cluster where one slave stalls forever (charged to coverage
// by the quorum) and one answers with a deadline-truncated, quarantined
// report. Every degraded input is scripted, so the entire result — including
// the per-slave error strings and the trace — is a pure function of the
// scenario, which is what lets serial and parallel runs be byte-compared.
func runOverloadGoldenScenario(t *testing.T, parallelism int) []byte {
	t.Helper()
	sim, tv, deps := faultScenario(t, 1)
	master := NewMaster(core.Config{}, deps,
		WithQuorum(0.75), WithLocalizeTimeout(2*time.Second))
	if err := master.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	for _, comp := range sim.Components() {
		if comp == apps.App2 {
			continue
		}
		sl := NewSlave("host-"+comp, []string{comp}, core.Config{Parallelism: parallelism})
		for _, k := range metric.Kinds {
			series, err := sim.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < series.Len() && series.TimeAt(i) <= tv; i++ {
				if err := sl.Observe(comp, series.TimeAt(i), k, series.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sl.Connect(master.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
	}
	// app2's slave registers, then stalls forever: the quorum charges it to
	// coverage with a deterministic deadline error.
	fakeSlave(t, master.Addr(), "host-"+apps.App2, []string{apps.App2})
	// The cache slave answers instantly with a fixed deadline-truncated,
	// quarantined report, standing in for a slave that ran out of budget.
	cacheConn, cacheW := fakeSlave(t, master.Addr(), "host-cache", []string{"cache"})
	go func() {
		r := newReader(cacheConn)
		for {
			env, err := readFrame(r)
			if err != nil {
				return
			}
			if env.Type != typeAnalyze {
				continue
			}
			rep := core.ComponentReport{
				Component:   "cache",
				Truncated:   true,
				Quarantined: []string{"cpu"},
			}
			_ = cacheW.write(&envelope{Type: typeReports, ID: env.ID,
				Reports: []core.ComponentReport{rep}}, 2*time.Second)
		}
	}()
	waitFor(t, 2*time.Second, func() bool { return len(master.Slaves()) == 5 }, "registrations")

	// Quorum: ceil(0.75 * 5) = 4 of 5 — exactly the answering set, so the
	// call returns as soon as the four answers are in, never waiting out the
	// deadline on the stalled slave.
	res, err := master.Localize(context.Background(), tv)
	if err != nil {
		t.Fatalf("golden scenario localize: %v", err)
	}
	report := overloadGoldenReport{
		TV:                 tv,
		Verdict:            res.String(),
		Culprits:           res.Diagnosis.CulpritNames(),
		External:           res.Diagnosis.ExternalFactor,
		SlavesAnswered:     res.SlavesAnswered,
		SlavesTotal:        res.SlavesTotal,
		ComponentsReported: res.ComponentsReported,
		ComponentsKnown:    res.ComponentsKnown,
		Degraded:           res.Degraded,
		Truncated:          res.Truncated,
		MissingComponents:  res.MissingComponents,
		Quarantined:        res.Quarantined,
		Errors:             res.Errors,
		Trace:              res.Trace.Normalize(),
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestGoldenQuorumDegradedLocalization pins the degraded-mode contract: a
// deadline-truncated, quorum-degraded localization must reproduce its
// committed verdict, coverage attribution, and normalized trace exactly,
// with serial and 4-way-parallel slave analysis byte-identical. Regenerate
// with `go test ./... -update` after an intentional pipeline change.
func TestGoldenQuorumDegradedLocalization(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fault-injection simulations")
	}
	serial := runOverloadGoldenScenario(t, 1)
	parallel := runOverloadGoldenScenario(t, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parallel degraded report differs from serial: determinism contract broken")
	}
	golden.Assert(t, golden.Path("quorum-degraded.json"), serial)
}
