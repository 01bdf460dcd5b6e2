package collective

import "repro/internal/metrics"

// Executor instrumentation on the default registry, labelled by the compiled
// program's algorithm name. Counts are per participating rank: a ring
// allgather over an 8-rank communicator contributes 8 executions. Series
// appear on first use (execMetricsFor). Compile-time metrics
// (schedule_compile_seconds, schedule_cache_{hits,misses}_total) live in
// package sched next to the compiler.
var (
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
