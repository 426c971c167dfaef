package cloudsim

import (
	"testing"

	"fchain/internal/metric"
	"fchain/internal/workload"
)

func TestDiskHogRampIsGradual(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewDiskHog(100, 50, 200, "db")); err != nil {
		t.Fatal(err)
	}
	sim.Step(400)
	dw, _ := sim.Series("db", metric.DiskWrite)
	early := mean(dw.Values()[110:130]) // 10-30s into a 200s ramp
	late := mean(dw.Values()[320:380])  // past the ramp
	base := mean(dw.Values()[40:90])
	if early > base+0.3*(late-base) {
		t.Errorf("ramp should still be shallow early on: base=%v early=%v late=%v", base, early, late)
	}
	if late < base+20 {
		t.Errorf("ramp should reach its peak: base=%v late=%v", base, late)
	}
}

func TestDiskHogRampDefault(t *testing.T) {
	f := NewDiskHog(0, 10, 0, "x")
	if f.RampSec <= 0 {
		t.Error("non-positive ramp must be defaulted")
	}
}

func TestOffloadBugAsymmetry(t *testing.T) {
	sim, err := New(threeTier(workload.Constant(60)), 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(NewOffloadBug(100, "app1", "app2", 0.05)); err != nil {
		t.Fatal(err)
	}
	sim.Step(300)
	a1, _ := sim.Series("app1", metric.CPU)
	a2, _ := sim.Series("app2", metric.CPU)
	a1Before, a1After := mean(a1.Values()[40:90]), mean(a1.Values()[150:250])
	a2Before, a2After := mean(a2.Values()[40:90]), mean(a2.Values()[150:250])
	if a1After <= a1Before {
		t.Errorf("overloaded server CPU should rise: %v -> %v", a1Before, a1After)
	}
	if a2After >= a2Before {
		t.Errorf("idle server CPU should drop: %v -> %v", a2Before, a2After)
	}
}

func TestLBBugGroundTruth(t *testing.T) {
	f := NewLBBug(0, "web", map[string]float64{"app1": 0.9, "app2": 0.1}, 2)
	truth := f.GroundTruth()
	if len(truth) != 2 || truth[0] != "app1" || truth[1] != "app2" {
		t.Errorf("GroundTruth = %v, want sorted backends", truth)
	}
	// Perturbation targets include the balancer and the overloaded backend.
	targets := f.Targets()
	hasWeb, hasApp1 := false, false
	for _, c := range targets {
		if c == "web" {
			hasWeb = true
		}
		if c == "app1" {
			hasApp1 = true
		}
	}
	if !hasWeb || !hasApp1 {
		t.Errorf("Targets = %v, want balancer + overloaded backend", targets)
	}
	// Without a slowdown only the balancer is perturbed.
	plain := NewLBBug(0, "web", map[string]float64{"a": 1, "b": 1}, 0)
	if len(plain.Targets()) != 1 {
		t.Errorf("plain LBBug targets = %v, want just the balancer", plain.Targets())
	}
}

func TestFaultAccessors(t *testing.T) {
	f := NewMemLeak(42, 10, "a", "b")
	if f.Name() != "memleak" || f.Start() != 42 {
		t.Errorf("accessors wrong: %s %d", f.Name(), f.Start())
	}
	targets := f.Targets()
	targets[0] = "mutated"
	if f.Targets()[0] != "a" {
		t.Error("Targets must return a copy")
	}
}
