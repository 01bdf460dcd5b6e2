//go:build race

package mpi

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count assertions are skipped because sync.Pool drops a share of
// its entries at random under the detector.
const raceEnabled = true
