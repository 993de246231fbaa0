//go:build race

package refine

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a quarter of the values put into it, so allocation
// counts of pooled paths are not repeatable.
const raceEnabled = true
