//go:build !race

package service

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
