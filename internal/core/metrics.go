package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/metrics"
)

// Per-heuristic instrumentation on the default registry: how often each
// mapper runs, how long it takes, how much find-closest work it does, and
// how often a context deadline interrupts it (the degradation path the mapd
// service depends on).
var (
	heuristicMappings = metrics.NewCounterVec("heuristic_mappings_total",
		"Completed topology-aware mapping computations.", "heuristic")
	heuristicCancellations = metrics.NewCounterVec("heuristic_cancellations_total",
		"Mapping computations interrupted by context cancellation or deadline.", "heuristic")
	heuristicPlacements = metrics.NewCounterVec("heuristic_placements_total",
		"Ranks placed onto cores across all mapping computations.", "heuristic")
	heuristicCostEvals = metrics.NewCounterVec("heuristic_cost_evaluations_total",
		"Distance-matrix lookups performed by find-closest scans.", "heuristic")
	heuristicSeconds = metrics.NewHistogramVec("heuristic_mapping_seconds",
		"Wall time of mapping computations.", metrics.DurationOpts, "heuristic")
)

// heuristicSeries is one heuristic's resolved series.
type heuristicSeries struct {
	mappings, cancellations, placements, costEvals *metrics.Counter
	seconds                                        *metrics.Histogram
}

// byHeuristic resolves every reporting heuristic's series once, so that
// recording a mapping resolves no label, and so that /metrics exposes every
// family with zero values before the first mapping runs.
var byHeuristic = map[string]*heuristicSeries{}

func init() {
	for _, h := range []string{"rdmh", "rmh", "bbmh", "bgmh", "bkmh", "scotch"} {
		byHeuristic[h] = &heuristicSeries{heuristicMappings.With("heuristic", h), heuristicCancellations.With("heuristic", h),
			heuristicPlacements.With("heuristic", h), heuristicCostEvals.With("heuristic", h), heuristicSeconds.With("heuristic", h)}
	}
}

// RecordMapping records one mapping attempt under the given heuristic label:
// its wall time since start, the number of ranks it placed, the number of
// distance evaluations it performed (0 when the mapper does not count them),
// and its outcome — completed, cancelled (context errors), or failed.
// External mappers such as the scotch baseline report through this so all
// heuristics share one family set. heuristic must be a byHeuristic name.
func RecordMapping(heuristic string, start time.Time, placed int, costEvals int64, err error) {
	m := byHeuristic[heuristic]
	m.seconds.Observe(time.Since(start).Seconds())
	if placed > 0 {
		m.placements.Add(uint64(placed))
	}
	if costEvals > 0 {
		m.costEvals.Add(uint64(costEvals))
	}
	switch {
	case err == nil:
		m.mappings.Inc()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		m.cancellations.Inc()
	}
}

// instrumentMapping is the deferred form used by the mapper-based heuristics:
//
//	defer instrumentMapping("rdmh", time.Now(), mp, &err)
//
// It reads the placement and scan counts out of the mapper at return time,
// so partial work done before a cancellation is still accounted.
func instrumentMapping(heuristic string, start time.Time, mp *mapper, errp *error) {
	RecordMapping(heuristic, start, len(mp.m)-mp.left, mp.scanned, *errp)
}
