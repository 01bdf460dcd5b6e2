package collective

import (
	"time"

	"repro/internal/metrics"
)

// Per-algorithm instrumentation on the default registry. Counts and
// durations are recorded per participating rank: a ring allgather over an
// 8-rank communicator contributes 8 invocations, mirroring how each rank
// experiences the collective. Every collective records a single "total"
// phase; per-stage timing lives in schedule_stage_seconds.
var (
	collectiveInvocations = metrics.NewCounterVec("collective_invocations_total",
		"Collective invocations, one per participating rank.", "algorithm")
	collectivePhase = metrics.NewHistogramVec("collective_phase_seconds",
		"Per-rank wall time of collective phases.", metrics.DurationOpts,
		"algorithm", "phase")

	// schedule_* families instrument the generic schedule executor, labelled
	// by the compiled program's algorithm name. Compile-time metrics
	// (schedule_compile_seconds, schedule_cache_{hits,misses}_total) live in
	// package sched next to the compiler.
	scheduleExecutions = metrics.NewCounterVec("schedule_executions_total",
		"Schedule-executor runs, one per participating rank.", "algorithm")
	scheduleStageSeconds = metrics.NewHistogramVec("schedule_stage_seconds",
		"Wall time of executed schedule stages, sampled on the world's "+
			"configured sample rank (Tuning.StageSampleRank, default 0).",
		metrics.DurationOpts, "algorithm")
	scheduleTransfers = metrics.NewCounterVec("schedule_transfers_total",
		"Messages sent by the schedule executor.", "algorithm")
	scheduleBytes = metrics.NewCounterVec("schedule_bytes_total",
		"Payload bytes sent by the schedule executor.", "algorithm")
)

// knownAlgorithms pre-registers the per-algorithm series so that /metrics
// exposes every family with zero values before the first collective runs.
var knownAlgorithms = []string{
	"ring", "recursive-doubling", "bruck", "neighbor-exchange",
	"binomial-broadcast", "linear-broadcast", "binomial-gather",
	"linear-gather", "binomial-scatter", "scatter-allgather-broadcast",
	"hierarchical", "hierarchical-reordered", "reordered",
	"allreduce", "hierarchical-allreduce", "rabenseifner", "binomial-reduce",
}

// knownSchedules pre-registers the executor series for every compiled
// program name the selection tables can produce.
var knownSchedules = []string{
	"ring", "recursive-doubling", "bruck", "neighbor-exchange",
	"allreduce", "reduce-scatter-allgather",
	"binomial-gather", "binomial-broadcast", "linear-gather",
	"linear-broadcast", "binomial-scatter", "scatter-allgather-broadcast",
	"hierarchical-linear-ring", "hierarchical-linear-recursive-doubling",
	"hierarchical-non-linear-ring", "hierarchical-non-linear-recursive-doubling",
}

func init() {
	for _, a := range knownAlgorithms {
		collectiveInvocations.With("algorithm", a)
		collectivePhase.With("algorithm", a, "phase", "total")
	}
	for _, a := range knownSchedules {
		scheduleExecutions.With("algorithm", a)
		scheduleStageSeconds.With("algorithm", a)
		scheduleTransfers.With("algorithm", a)
		scheduleBytes.With("algorithm", a)
	}
}

// beginCollective counts one invocation of alg on the calling rank and
// returns the completion hook that records the total phase duration; use as
//
//	defer beginCollective("ring")()
func beginCollective(alg string) func() {
	collectiveInvocations.With("algorithm", alg).Inc()
	start := time.Now()
	return func() {
		collectivePhase.With("algorithm", alg, "phase", "total").Observe(time.Since(start).Seconds())
	}
}
