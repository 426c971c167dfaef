// Package faultlib is the fault-template library for generated meshes: a
// registry of composable fault templates beyond the paper's catalog, each
// scaled automatically to the mesh it is injected into (magnitudes derive
// from the target's flow share, memory headroom, and host packing rather
// than hand-tuned constants).
//
// Three template classes exist:
//
//   - genuine faults (gray-disk, slow-leak, retry-storm, noisy-neighbor,
//     correlated-memleak): localized misbehavior with a non-empty ground
//     truth that a localizer is scored on finding,
//   - false-alarm traps (workload-surge, flash-crowd): legitimate workload
//     shifts with an *empty* ground truth — every pinpointed component is a
//     false positive, and FChain's external-factor rule is what passes them,
//   - pathological detector validators (instant-kill, everything-degrades):
//     in the spirit of reject-all/inverted-SLO chaos handlers, their only
//     purpose is proving the CUSUM/FFT detectors and SLO violation checks
//     actually fire; a silent detector regression fails with the template's
//     name.
//
// Every template declares a detection window: on a reference mesh the SLO
// violation and a non-empty changepoint onset must appear within WindowSec
// of injection (enforced by the detector-validation suite).
package faultlib

import (
	"fmt"
	"math/rand"
	"sort"

	"fchain/internal/apps"
	"fchain/internal/cloudsim"
	"fchain/internal/core"
	"fchain/internal/meshgen"
)

// MeshExternalSpread is the recommended external-factor onset-spread window
// (seconds) for generated meshes. The paper's 6 s constant is tuned to
// 4–9 component applications; a mesh-wide workload shift propagates one
// simulated second per layer, so deep meshes need a wider window before
// "everything moved together" is recognized. Wave-staggered templates are
// constructed to exceed this spread so they are NOT mistaken for external
// factors.
const MeshExternalSpread = 12

// MeshMinRelMagnitude is the recommended relative-magnitude selection floor
// (core.Config.MinRelMagnitude) for generated meshes. With hundreds of
// monitored components, statistically significant but operationally
// meaningless shifts — a few percent of a near-idle metric's level, planted
// by the workload model's own periodic drift — would otherwise appear in
// almost every run and steal the propagation chain's source slot. Genuine
// template faults shift their targets' metrics by 50%+ of the operating
// level, far above this floor; the paper's small benchmark apps keep the
// floor off (zero) to preserve the published configuration.
const MeshMinRelMagnitude = 0.12

// MeshProfile returns base with the generated-mesh monitoring profile
// applied: ExternalSpread widened to MeshExternalSpread and the
// MinRelMagnitude selection floor set to MeshMinRelMagnitude. Every other
// field keeps the caller's value.
func MeshProfile(base core.Config) core.Config {
	base.ExternalSpread = MeshExternalSpread
	base.MinRelMagnitude = MeshMinRelMagnitude
	return base
}

// Template is one injectable fault pattern, scaled to a mesh at Make time.
type Template struct {
	// Name identifies the template (CLI -fault value and matrix row label).
	Name string
	// Multi marks multi-component concurrent faults.
	Multi bool
	// Trap marks false-alarm traps: ground truth is empty and the template
	// is scored on zero pinpointed culprits.
	Trap bool
	// Pathological marks detector-validation templates whose purpose is
	// proving the detectors fire, not realism.
	Pathological bool
	// LookBack overrides FChain's look-back window when non-zero (slow
	// ramps need the paper's W=500).
	LookBack int
	// WindowSec is the declared detection window: the SLO violation (and a
	// changepoint onset) must appear within this many seconds of injection
	// on a reference mesh.
	WindowSec int64
	// SustainSec overrides the SLO sustain requirement when non-zero
	// (duty-cycled faults need the alarm to fire within one on-phase).
	SustainSec int
	// Signature is the one-line failure signature (metric shape) for docs.
	Signature string
	// Make builds the concrete fault against mesh m starting at tick start,
	// drawing targets and jitter from rng.
	Make func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault
}

// Templates returns the full catalog in canonical (matrix row) order.
func Templates() []Template {
	return []Template{
		{
			Name:      "gray-disk",
			WindowSec: 90,
			Signature: "duty-cycled disk-read/write spikes + flapping latency; recovers between on-phases",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				target := m.PickComponent(rng, 1)
				spec, _ := m.SpecOf(target)
				// Slowdown 6 drives the target far past saturation (0.35
				// util × 6 ≈ 2.1): queueing at the target breaches the
				// end-to-end SLO within the first on-phase even when the
				// target carries a small share of the mesh's flow. A
				// marginal slowdown lets the alarm drift whole duty-cycles
				// past injection, until the look-back window no longer
				// contains the onset.
				return cloudsim.NewGrayDisk(start, 0.5*spec.DiskMBps, 6, 45, 20, target)
			},
		},
		{
			Name:      "slow-leak",
			LookBack:  500,
			WindowSec: 350,
			Signature: "sub-outlier-clamp memory ramp; latency knee once the pressure model engages",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				target := m.PickComponent(rng, 1)
				spec, _ := m.SpecOf(target)
				rate := (0.85*spec.MemoryMB - spec.BaseMemMB) / 180
				if rate < 0.5 {
					rate = 0.5
				}
				return cloudsim.NewMemLeak(start, rate, target)
			},
		},
		{
			Name:      "retry-storm",
			Multi:     true,
			WindowSec: 60,
			Signature: "slow root + amplified load from retrying callers: CPU/net rise along reversed dep edges",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				root := m.PickComponent(rng, 1)
				ups := m.UpstreamsOf(root)
				retryRate := 0.5 * m.FlowOf(root)
				if retryRate < 1 {
					retryRate = 1
				}
				return cloudsim.NewRetryStorm(start, root, ups, 3, retryRate, 0.6, 3)
			},
		},
		{
			Name:      "noisy-neighbor",
			Multi:     true,
			WindowSec: 60,
			Signature: "co-hosted CPU steal: every tenant of one host saturates concurrently",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				victims, ok := m.PickSharedHost(rng)
				if !ok {
					victims = []string{m.PickComponent(rng, 1)}
				}
				hog := cloudsim.NewCPUHog(start, 1.4, victims...)
				return &cloudsim.Named{Fault: hog, Label: "noisy-neighbor", Truth: victims}
			},
		},
		{
			Name:      "correlated-memleak",
			Multi:     true,
			LookBack:  500,
			WindowSec: 250,
			Signature: "the same leak in several unrelated components at once (shared bad deploy)",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				targets := pickDistinct(m, rng, 3)
				spec, _ := m.SpecOf(targets[0])
				rate := (0.85*spec.MemoryMB - spec.BaseMemMB) / 120
				if rate < 0.5 {
					rate = 0.5
				}
				leak := cloudsim.NewMemLeak(start, rate, targets...)
				return &cloudsim.Named{Fault: leak, Label: "correlated-memleak"}
			},
		},
		{
			Name:         "instant-kill",
			Pathological: true,
			WindowSec:    30,
			Signature:    "CPU cap to ~zero: the hardest possible changepoint — a detector that misses this is broken",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				target := m.PickComponent(rng, 1)
				kill := cloudsim.NewBottleneck(start, 0.002, target)
				return &cloudsim.Named{Fault: kill, Label: "instant-kill"}
			},
		},
		{
			Name:         "everything-degrades",
			Multi:        true,
			Pathological: true,
			WindowSec:    60,
			Signature:    "mesh-wide slowdown in layer waves; spread exceeds the external-factor window by construction",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				return cloudsim.NewDegradeWaves(start, 2.9, 6, m.Layers)
			},
		},
		{
			Name:      "workload-surge",
			Trap:      true,
			WindowSec: 60,
			Signature: "ramped legitimate traffic surge: every metric rises together, nobody is at fault",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				// A short ramp keeps the mesh-wide CUSUM onsets inside the
				// external-factor spread window: a long slow rise lets
				// detection lag fan the onsets out until the surge looks
				// like a propagating fault instead of an external factor.
				return cloudsim.NewWorkloadSurge(start, 1.6*m.Params.BaseRate, 6, m.Spec.Entries...)
			},
		},
		{
			Name:      "flash-crowd",
			Trap:      true,
			WindowSec: 60,
			Signature: "step traffic surge (no ramp): a sharper external-factor trap than workload-surge",
			Make: func(start int64, m *meshgen.Mesh, rng *rand.Rand) cloudsim.Fault {
				return cloudsim.NewWorkloadSurge(start, 1.8*m.Params.BaseRate, 0, m.Spec.Entries...)
			},
		},
	}
}

// pickDistinct draws k distinct non-entry components.
func pickDistinct(m *meshgen.Mesh, rng *rand.Rand, k int) []string {
	seen := make(map[string]bool, k)
	var out []string
	for len(out) < k {
		c := m.PickComponent(rng, 1)
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Names returns the catalog's template names in canonical order.
func Names() []string {
	ts := Templates()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// Lookup finds a template by name.
func Lookup(name string) (Template, bool) {
	for _, t := range Templates() {
		if t.Name == name {
			return t, true
		}
	}
	return Template{}, false
}

// FaultCase adapts a template bound to a mesh into the evaluation harness's
// fault-case form, so the existing parallel Campaign runs it unchanged.
func FaultCase(tpl Template, m *meshgen.Mesh) apps.FaultCase {
	return apps.FaultCase{
		Name:     tpl.Name,
		Multi:    tpl.Multi,
		LookBack: tpl.LookBack,
		Make: func(start int64, rng *rand.Rand) cloudsim.Fault {
			return tpl.Make(start, m, rng)
		},
	}
}

// MustLookup is Lookup that panics on unknown names (registry init paths).
func MustLookup(name string) Template {
	t, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("faultlib: unknown template %q", name))
	}
	return t
}
