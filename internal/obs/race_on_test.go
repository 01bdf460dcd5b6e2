//go:build race

package obs

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count assertions are skipped because the detector's shadow
// state allocates on operations that are allocation-free in normal builds.
const raceEnabled = true
