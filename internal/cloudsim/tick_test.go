package cloudsim_test

import (
	"math"
	"math/rand"
	"testing"

	"fchain/internal/cloudsim"
	"fchain/internal/meshgen"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// stormMesh is the benchmark's violation-storm topology.
const stormMesh = "n=128,fanout=3,depth=6,cycle=0.05,seed=22"

// meshSim builds a simulation of the mesh with a gray-disk fault on one of
// its components from tick 50.
func meshSim(t testing.TB, params string, seed int64) *cloudsim.Sim {
	t.Helper()
	p, err := meshgen.ParseParams(params)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := meshgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cloudsim.New(mesh.SpecWithTrace(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	target := mesh.PickComponent(rand.New(rand.NewSource(seed)), 1)
	spec, _ := mesh.SpecOf(target)
	if err := sim.Inject(cloudsim.NewGrayDisk(50, 0.5*spec.DiskMBps, 6, 45, 20, target)); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestSimTickSteadyStateAllocs holds a warm tick to the amortized growth of
// the recorded series: the per-tick scratch is reused, never remade.
func TestSimTickSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sim := meshSim(t, stormMesh, 4001)
	sim.Step(100)
	got := testing.AllocsPerRun(500, func() { sim.Step(1) })
	t.Logf("%.1f allocs per tick", got)
	if got > 8 {
		t.Errorf("a warm tick allocates %.1f times, want <= 8", got)
	}
}

// TestCloneDoesNotAliasOriginal steps a clone that shares nothing with its
// original: a twin that was never cloned must record the same bits.
func TestCloneDoesNotAliasOriginal(t *testing.T) {
	const params = "n=32,fanout=3,depth=4,seed=24"
	a, b := meshSim(t, params, 7), meshSim(t, params, 7)
	a.Step(120)
	b.Step(120)
	clone := a.Clone()
	for _, name := range clone.Components() {
		for _, k := range []metric.Kind{metric.CPU, metric.DiskRead} {
			if err := clone.ScaleResource(name, k, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	clone.Step(200)
	a.Step(200)
	b.Step(200)
	same := func(what string, x, y *timeseries.Series) {
		t.Helper()
		if x.Start() != y.Start() || x.Len() != y.Len() {
			t.Fatalf("%s: start/len %d/%d, twin %d/%d", what, x.Start(), x.Len(), y.Start(), y.Len())
		}
		for i := 0; i < x.Len(); i++ {
			if math.Float64bits(x.At(i)) != math.Float64bits(y.At(i)) {
				t.Fatalf("%s differs from its twin at %d: %v vs %v", what, i, x.At(i), y.At(i))
			}
		}
	}
	for _, name := range a.Components() {
		for _, k := range metric.Kinds {
			x, err := a.Series(name, k)
			if err != nil {
				t.Fatal(err)
			}
			y, _ := b.Series(name, k)
			same(name+"/"+k.String(), x, y)
		}
	}
	same("latency", a.LatencySeries(), b.LatencySeries())
	same("progress", a.ProgressSeries(), b.ProgressSeries())
	if x, y := a.ViolationRatio(0, a.Now()), b.ViolationRatio(0, b.Now()); x != y {
		t.Fatalf("violation ratio %v, twin %v", x, y)
	}
	// The clone really did run differently, or the comparison proves nothing.
	if x, y := a.LatencySeries(), clone.LatencySeries(); x.At(x.Len()-1) == y.At(y.Len()-1) {
		t.Fatal("the scaled clone recorded the original's latency")
	}
}

// BenchmarkModuleSimTick times one warm tick of the violation-storm mesh.
func BenchmarkModuleSimTick(b *testing.B) {
	sim := meshSim(b, stormMesh, 4001)
	sim.Step(100)
	b.ReportAllocs()
	for b.Loop() {
		sim.Step(1)
	}
}
