//go:build race

package markov

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a share of what is put back, so the pooled remap scratch
// is rebuilt at random and allocation counts mean nothing.
const raceEnabled = true
