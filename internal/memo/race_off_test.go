//go:build !race

package memo

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
