package fchain_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"fchain"
	"fchain/internal/faultlib"
	"fchain/internal/golden"
	"fchain/scenario"
)

// goldenScenario is one canonical fault-injection run whose end-to-end
// localization — verdict, propagation chain, and full evidence trace — is
// pinned by a committed golden report under testdata/golden/.
type goldenScenario struct {
	name    string
	app     string
	build   func(seed int64) (*scenario.System, error)
	fault   func(inject int64) scenario.Fault
	seed    int64
	inject  int64
	sustain int // consecutive violating seconds before the SLO alarm fires

	// meshSpec switches the scenario to a generated mesh (ParseMesh
	// grammar); faultTpl then names the fault-template to draw. Mesh
	// scenarios run under the mesh monitoring profile (wider
	// external-factor spread, relative-magnitude floor, longer dependency
	// capture) and pin the evidence trace by digest instead of full JSON —
	// a 200-component trace would dwarf every other golden combined.
	meshSpec string
	faultTpl string
}

// Fault parameters are fixed constants (no RNG draw, unlike fchain-sim's
// jittered magnitudes) so the entire run is a pure function of (app, seed).
var goldenScenarios = []goldenScenario{
	{
		name: "rubis-cpuhog-db", app: "rubis", build: scenario.RUBiS,
		fault:   func(inject int64) scenario.Fault { return scenario.NewCPUHog(inject, 1.8, "db") },
		seed:    1,
		inject:  1700,
		sustain: 8,
	},
	{
		name: "rubis-memleak-app1", app: "rubis", build: scenario.RUBiS,
		fault:   func(inject int64) scenario.Fault { return scenario.NewMemLeak(inject, 30, "app1") },
		seed:    2,
		inject:  1500,
		sustain: 8,
	},
	{
		name: "systems-cpuhog-pe3", app: "systems", build: scenario.SystemS,
		fault:   func(inject int64) scenario.Fault { return scenario.NewCPUHog(inject, 1.8, "pe3") },
		seed:    1,
		inject:  1500,
		sustain: 8,
	},
	{
		// The concurrent DiskHog on all map nodes is the paper's Hadoop
		// headline fault: it manifests slowly, so the alarm uses a short
		// sustain window (as the eval harness does for this scenario).
		name: "hadoop-diskhog-maps", app: "hadoop", build: scenario.Hadoop,
		fault: func(inject int64) scenario.Fault {
			return scenario.NewDiskHog(inject, 59.4, 300, "map1", "map2", "map3")
		},
		seed:    1,
		inject:  1400,
		sustain: 3,
	},
	{
		// A generated 200-component mesh under a gray disk failure: the
		// scenario-factory path (meshgen topology, faultlib template, mesh
		// monitoring profile) pinned end to end alongside the paper apps.
		name: "mesh200-gray-disk", app: "mesh",
		meshSpec: "n=200,fanout=3,depth=5,seed=21",
		faultTpl: "gray-disk",
		seed:     7,
		inject:   2000,
		sustain:  8,
	},
}

// goldenReport is the committed JSON shape: the scenario's identity, the
// localization verdict, and the normalized evidence trace.
type goldenReport struct {
	Scenario string        `json:"scenario"`
	App      string        `json:"app"`
	Fault    string        `json:"fault"`
	Seed     int64         `json:"seed"`
	Inject   int64         `json:"inject"`
	TV       int64         `json:"tv"`
	Verdict  string        `json:"verdict"`
	Culprits []string      `json:"culprits"`
	External bool          `json:"external"`
	Chain    []chainEntry  `json:"chain"`
	Trace    *fchain.Trace `json:"trace,omitempty"`
	// Mesh scenarios pin the normalized trace by size and digest.
	TraceSpans  int    `json:"trace_spans,omitempty"`
	TraceSHA256 string `json:"trace_sha256,omitempty"`
}

type chainEntry struct {
	Component string   `json:"component"`
	Onset     int64    `json:"onset"`
	Metrics   []string `json:"metrics"`
}

// runGoldenScenario replays one scenario end to end — simulate, detect the
// SLO violation, discover dependencies, feed the localizer, localize with
// tracing — and renders the report bytes compared against the golden.
func runGoldenScenario(t *testing.T, sc goldenScenario, parallelism int, streaming bool) []byte {
	t.Helper()
	cfg := fchain.DefaultConfig()
	depTraceSec := 600
	var (
		sys   *scenario.System
		fault scenario.Fault
	)
	if sc.meshSpec != "" {
		m, msys, err := scenario.Mesh(sc.meshSpec, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		sys = msys
		fault, err = scenario.MeshFault(sc.faultTpl, sc.inject, m, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg = faultlib.MeshProfile(cfg)
		if lb := scenario.MeshFaultLookBack(sc.faultTpl); lb > 0 {
			cfg.LookBack = lb
		}
		depTraceSec = 2400
	} else {
		var err error
		sys, err = sc.build(sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		fault = sc.fault(sc.inject)
	}
	if err := sys.Inject(fault); err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(sc.inject + 1100)
	tv, found := sys.FirstViolation(sc.inject, sc.sustain)
	if !found {
		t.Fatalf("%s: no SLO violation within the horizon", sc.name)
	}
	deps := fchain.DiscoverDependencies(sys.DependencyTrace(depTraceSec, sc.seed), fchain.DiscoverConfig{})

	cfg.Parallelism = parallelism
	cfg.Streaming = streaming
	loc := fchain.NewLocalizer(cfg, sys.Components())
	for _, comp := range sys.Components() {
		for _, k := range fchain.Kinds() {
			s, err := sys.Series(comp, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.Len() && s.TimeAt(i) <= tv; i++ {
				if err := loc.Observe(comp, s.TimeAt(i), k, s.At(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	diag, _, trace := loc.LocalizeTraced(tv, deps)
	if trace.SpanCount() == 0 {
		t.Fatal("LocalizeTraced returned an empty trace")
	}

	report := goldenReport{
		Scenario: sc.name,
		App:      sc.app,
		Fault:    fault.Name(),
		Seed:     sc.seed,
		Inject:   sc.inject,
		TV:       tv,
		Verdict:  diag.String(),
		Culprits: diag.CulpritNames(),
		External: diag.ExternalFactor,
	}
	if sc.meshSpec != "" {
		norm, err := json.Marshal(trace.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(norm)
		report.TraceSpans = trace.SpanCount()
		report.TraceSHA256 = hex.EncodeToString(sum[:])
	} else {
		report.Trace = trace.Normalize()
	}
	for _, r := range diag.Chain {
		entry := chainEntry{Component: r.Component, Onset: r.Onset}
		for _, k := range r.AbnormalMetrics() {
			entry.Metrics = append(entry.Metrics, k.String())
		}
		report.Chain = append(report.Chain, entry)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestGoldenEndToEnd pins the pipeline's end-to-end behavior: each
// canonical fault scenario must reproduce its committed verdict and
// evidence trace exactly, across the full execution matrix — serial and
// 4-way-parallel analysis, batch and streaming selection — all four
// producing byte-identical reports. Regenerate with
// `go test ./... -update` after an intentional pipeline change.
func TestGoldenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fault-injection simulations")
	}
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			serial := runGoldenScenario(t, sc, 1, false)
			for _, v := range []struct {
				name        string
				parallelism int
				streaming   bool
			}{
				{"parallel", 4, false},
				{"streaming-serial", 1, true},
				{"streaming-parallel", 4, true},
			} {
				if got := runGoldenScenario(t, sc, v.parallelism, v.streaming); !bytes.Equal(serial, got) {
					t.Fatalf("%s report differs from serial batch: determinism contract broken", v.name)
				}
			}
			golden.Assert(t, golden.Path(sc.name+".json"), serial)
		})
	}
}
