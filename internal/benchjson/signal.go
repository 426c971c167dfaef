package benchjson

import (
	"math"
	"math/rand"
)

// NoisyStepSignal is the input of the ModuleSelectionNoisy micro-benchmark
// and of the selection kernel's allocation guard, generated in one place so
// that `go test -bench`, fchain-bench and the guard measure the same thing:
// a slow cycle under seeded Gaussian noise, with a 50-sample plateau every
// 400 samples. With n = 2000 the last plateau starts 50 samples before the
// end — a step inside the default look-back window that change point
// detection reports — while the earlier plateaus sit in the context, so the
// kernel runs its context statistics and the FFT burst extraction before it
// dismisses the step as a fluctuation the model has already seen.
func NoisyStepSignal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for t := range out {
		out[t] = 40 + 6*math.Sin(2*math.Pi*float64(t)/300) + 2*rng.NormFloat64()
		if t%400 >= 350 {
			out[t] += 15
		}
	}
	return out
}
