package main

import "time"

// calibrate times a fixed pure-Go kernel — integer mixing plus a float
// recurrence; no allocation, no memory traffic, no program code — and returns
// the median of several runs in milliseconds. It is reported beside every
// traced run: when it moves between two runs of the benchmark the machine
// moved, not the program. The reported metrics are not scaled by it: on the
// shared 2-core boxes this was sized on, run-to-run drift is mostly bursts of
// memory-side interference that a compute probe does not see.
func calibrate() float64 {
	samples := make([]float64, 9)
	for i := range samples {
		t0 := time.Now()
		x, f := uint64(88172645463325252), 1.0
		for j := 0; j < 1<<22; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*0.999999 + float64(x&1023)*1e-9
		}
		calibSink = f
		samples[i] = ms(time.Since(t0))
	}
	return median(samples)
}

// calibSink keeps the kernel's result alive.
var calibSink float64
