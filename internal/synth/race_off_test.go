//go:build !race

package synth

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
