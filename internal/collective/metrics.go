package collective

import (
	"time"

	"repro/internal/metrics"
)

// Per-algorithm instrumentation on the default registry. Counts and
// durations are recorded per participating rank: a ring allgather over an
// 8-rank communicator contributes 8 invocations, mirroring how each rank
// experiences the collective. Every collective records a single "total"
// phase; per-stage timing lives in schedule_stage_seconds. Series appear on
// first use (beginCollective, execMetricsFor).
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
		"Wall time of executed schedule stages, sampled on rank 0.",
		metrics.DurationOpts, "algorithm")
	scheduleTransfers = metrics.NewCounterVec("schedule_transfers_total",
		"Messages sent by the schedule executor.", "algorithm")
	scheduleLentTransfers = metrics.NewCounterVec("schedule_lent_transfers_total",
		"Messages the schedule executor sent as a view of its buffer instead of a copy.", "algorithm")
	scheduleBytes = metrics.NewCounterVec("schedule_bytes_total",
		"Payload bytes sent by the schedule executor.", "algorithm")
)

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
