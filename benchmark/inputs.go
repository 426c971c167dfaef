package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fchain/internal/cloudsim"
	"fchain/internal/depgraph"
	"fchain/internal/faultlib"
	"fchain/internal/meshgen"
	"fchain/internal/metric"
)

// column is one (component, metric) stream of one-second samples; sample i
// was taken at virtual time start+i.
type column struct {
	start int64
	vals  []float64
}

// inputs is everything a workload feeds the program, generated from the
// run's seed alone.
type inputs struct {
	comps []string // sorted
	cols  map[string]*[metric.NumKinds]column
	// first/last bound the virtual seconds every column covers.
	first, last int64
	// tv is the violation time the first Localize is issued for.
	tv       int64
	detected bool     // the simulated SLO detector fired within detectorGrace
	truth    []string // the fault's ground-truth components (nil when healthy)
	packets  []depgraph.Packet
	// digest fingerprints the generated samples (names, times, bit patterns).
	digest string
}

// value returns the sample of comp's k-th metric kind at virtual time t.
// Times past the simulated horizon wrap, so a long replay repeats the trace
// with a time offset.
func (in *inputs) value(cols *[metric.NumKinds]column, ki int, t int64) float64 {
	c := &cols[ki]
	i := t - c.start
	if n := int64(len(c.vals)); i >= n {
		i %= n
	}
	return c.vals[i]
}

func (in *inputs) fingerprint() string {
	h := sha256.New()
	var b [8]byte
	for _, comp := range in.comps {
		h.Write([]byte(comp))
		for ki := range in.cols[comp] {
			c := &in.cols[comp][ki]
			binary.LittleEndian.PutUint64(b[:], uint64(c.start))
			h.Write(b[:])
			for _, v := range c.vals {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(in.tv))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// generate builds a workload's inputs: a meshgen topology, a cloudsim run of
// it under a seeded workload trace with the fault template injected, the
// per-second metric columns, and the packet capture dependency discovery
// reads. The seed drives the workload trace, the simulator's noise, the
// fault's target and the packet capture. The topology is part of the workload
// (spec.Mesh carries its own seed): component names decide the hash-based
// placement, and a placement that changed with every seed would move every
// timing by the shard imbalance it happened to draw.
func generate(spec workloadSpec, seed int64) (*inputs, error) {
	params, err := meshgen.ParseParams(spec.Mesh)
	if err != nil {
		return nil, fmt.Errorf("mesh params: %w", err)
	}
	mesh, err := meshgen.Generate(params)
	if err != nil {
		return nil, fmt.Errorf("mesh generate: %w", err)
	}
	sim, err := cloudsim.New(mesh.SpecWithTrace(seed), seed)
	if err != nil {
		return nil, fmt.Errorf("cloudsim: %w", err)
	}
	in := &inputs{tv: spec.InjectAt + detectorGrace}
	sustain := 8 // the evaluation harness's consecutive-violation requirement
	if spec.Fault != "" {
		tpl, ok := faultlib.Lookup(spec.Fault)
		if !ok {
			return nil, fmt.Errorf("unknown fault template %q", spec.Fault)
		}
		if tpl.SustainSec > 0 {
			sustain = tpl.SustainSec
		}
		fault := tpl.Make(spec.InjectAt, mesh, rand.New(rand.NewSource(seed*7919+13)))
		if err := sim.Inject(fault); err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		in.truth = fault.Targets()
		if gt, ok := fault.(cloudsim.GroundTruther); ok {
			in.truth = gt.GroundTruth()
		}
	}
	sim.RunUntil(spec.InjectAt + detectorGrace + maxCycles + 1)
	if spec.Fault != "" {
		if tv, ok := sim.FirstViolation(spec.InjectAt, sustain); ok && tv <= spec.InjectAt+detectorGrace {
			in.tv, in.detected = tv, true
		}
	}

	in.comps = sim.Components()
	sort.Strings(in.comps)
	in.cols = make(map[string]*[metric.NumKinds]column, len(in.comps))
	in.first, in.last = math.MinInt64, math.MaxInt64
	for _, comp := range in.comps {
		var cols [metric.NumKinds]column
		for ki, k := range metric.Kinds {
			s, err := sim.Series(comp, k)
			if err != nil {
				return nil, err
			}
			cols[ki] = column{start: s.Start(), vals: s.ValuesView()}
			if s.Start() > in.first {
				in.first = s.Start()
			}
			if end := s.End() - 1; end < in.last {
				in.last = end
			}
		}
		in.cols[comp] = &cols
	}
	if in.last < in.tv+maxCycles {
		return nil, fmt.Errorf("simulated horizon %d ends before tv+%d", in.last, maxCycles)
	}
	in.packets = sim.DependencyTrace(spec.DepCaptureSec, seed)
	in.digest = in.fingerprint()
	return in, nil
}
