//go:build !race

package obs

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
