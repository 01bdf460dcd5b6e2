//go:build race

package service

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count assertions are skipped because the detector's shadow
// bookkeeping allocates.
const raceEnabled = true
