package faultlib_test

import (
	"math/rand"
	"testing"

	"fchain/internal/cloudsim"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/faultlib"
	"fchain/internal/meshgen"
	"fchain/internal/metric"
)

// referenceMesh is the fixed mesh the detector-validation suite runs on:
// small enough to simulate every template quickly, deep enough (4 layers)
// that wave staggering and external-factor spreads behave as on the matrix
// meshes.
func referenceMesh(t *testing.T) *meshgen.Mesh {
	t.Helper()
	m, err := meshgen.Generate(meshgen.Params{
		Components: 60, FanOut: 3, Depth: 4, CycleProb: 0, Hosts: 15, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTemplateCatalog pins the registry's structural contract.
func TestTemplateCatalog(t *testing.T) {
	ts := faultlib.Templates()
	if len(ts) < 8 {
		t.Fatalf("catalog has %d templates, want >= 8", len(ts))
	}
	seen := make(map[string]bool)
	traps, pathological := 0, 0
	for _, tpl := range ts {
		if tpl.Name == "" || tpl.Make == nil || tpl.WindowSec <= 0 || tpl.Signature == "" {
			t.Errorf("template %+v missing required fields", tpl.Name)
		}
		if seen[tpl.Name] {
			t.Errorf("duplicate template %q", tpl.Name)
		}
		seen[tpl.Name] = true
		if tpl.Trap {
			traps++
		}
		if tpl.Pathological {
			pathological++
		}
	}
	if traps < 2 {
		t.Errorf("catalog has %d false-alarm traps, want >= 2", traps)
	}
	if pathological < 2 {
		t.Errorf("catalog has %d pathological validators, want >= 2", pathological)
	}
	for _, name := range faultlib.Names() {
		if _, ok := faultlib.Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed for a listed name", name)
		}
	}
	if _, ok := faultlib.Lookup("no-such-template"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestTemplateGroundTruth checks every template's fault classifies its
// ground truth correctly: traps empty (non-nil), genuine faults non-empty
// with every ground-truth component existing in the mesh.
func TestTemplateGroundTruth(t *testing.T) {
	m := referenceMesh(t)
	known := make(map[string]bool)
	for _, c := range m.Components() {
		known[c] = true
	}
	for _, tpl := range faultlib.Templates() {
		tpl := tpl
		t.Run(tpl.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			fault := tpl.Make(1000, m, rng)
			truth := fault.Targets()
			if gt, ok := fault.(cloudsim.GroundTruther); ok {
				truth = gt.GroundTruth()
			}
			if tpl.Trap {
				if truth == nil {
					t.Fatal("trap ground truth must be non-nil empty, got nil")
				}
				if len(truth) != 0 {
					t.Fatalf("trap ground truth = %v, want empty", truth)
				}
				return
			}
			if len(truth) == 0 {
				t.Fatal("non-trap template has empty ground truth")
			}
			for _, c := range truth {
				if !known[c] {
					t.Errorf("ground truth names unknown component %q", c)
				}
			}
			for _, c := range fault.Targets() {
				if !known[c] {
					t.Errorf("targets name unknown component %q", c)
				}
			}
		})
	}
}

// validateTemplate runs one template end to end on the reference mesh and
// returns the diagnosis plus detection timing.
func validateTemplate(t *testing.T, m *meshgen.Mesh, tpl faultlib.Template, seed int64) (core.Diagnosis, int64, int64) {
	t.Helper()
	// Past one full diurnal workload period (1800 s), so context
	// calibration has seen the generator's periodic drift.
	const inject = 2000
	sim, err := cloudsim.New(m.SpecWithTrace(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	fault := tpl.Make(inject, m, rng)
	if err := sim.Inject(fault); err != nil {
		t.Fatal(err)
	}
	sustain := tpl.SustainSec
	if sustain <= 0 {
		sustain = 8
	}
	sim.RunUntil(inject + tpl.WindowSec + 60)
	tv, found := sim.FirstViolation(inject, sustain)
	if !found {
		t.Fatalf("template %s: no SLO violation within %ds of injection", tpl.Name, tpl.WindowSec+60)
	}
	if tv-inject > tpl.WindowSec {
		t.Fatalf("template %s: SLO violation at t=%d, %ds after injection — outside the declared %ds window",
			tpl.Name, tv, tv-inject, tpl.WindowSec)
	}

	lookBack := tpl.LookBack
	if lookBack <= 0 {
		lookBack = 100
	}
	cfg := faultlib.MeshProfile(core.Config{LookBack: lookBack})
	loc := core.NewLocalizer(cfg, sim.Components())
	for _, comp := range sim.Components() {
		for _, k := range metric.Kinds {
			s, err := sim.Series(comp, k)
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
	deps := depgraph.Discover(sim.DependencyTrace(600, seed), depgraph.DiscoverConfig{})
	return loc.Localize(tv, deps), tv, inject
}

// TestTemplateDetectorValidation is the detector-validation suite: every
// template must trigger an SLO violation and a non-empty changepoint onset
// within its declared window on the reference mesh, and every false-alarm
// trap must NOT produce a culprit. One subtest per template, so a regressed
// detector fails with the template's name.
func TestTemplateDetectorValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fault-injection simulations")
	}
	m := referenceMesh(t)
	for _, tpl := range faultlib.Templates() {
		tpl := tpl
		t.Run(tpl.Name, func(t *testing.T) {
			t.Parallel()
			diag, tv, inject := validateTemplate(t, m, tpl, 3)
			if len(diag.Chain) == 0 {
				t.Fatalf("template %s: empty propagation chain — no changepoint onset detected by tv=%d", tpl.Name, tv)
			}
			for _, r := range diag.Chain {
				if r.Onset <= 0 {
					t.Fatalf("template %s: chain entry %s has no onset", tpl.Name, r.Component)
				}
			}
			if tpl.Trap {
				if len(diag.Culprits) != 0 {
					t.Fatalf("template %s is a false-alarm trap but blamed %v (external=%v)",
						tpl.Name, diag.CulpritNames(), diag.ExternalFactor)
				}
				return
			}
			if len(diag.Culprits) == 0 {
				t.Fatalf("template %s: no culprits pinpointed (external=%v, chain=%d comps, tv-inject=%ds)",
					tpl.Name, diag.ExternalFactor, len(diag.Chain), tv-inject)
			}
		})
	}
}
