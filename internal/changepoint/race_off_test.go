//go:build !race

package changepoint

// raceEnabled reports whether the race detector is compiled in; allocation
// counts are not meaningful under it.
const raceEnabled = false
