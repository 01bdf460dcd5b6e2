package mpi

import "repro/internal/metrics"

// Runtime-wide instrumentation on the default registry. The handles are
// resolved once at package init; every update on the message path is a
// single lock-free atomic (see package metrics), so the runtime pays a
// fixed, allocation-free cost per event whether or not anything scrapes
// /metrics.
var (
	metricMessagesSent = metrics.NewCounter("mpi_messages_sent_total",
		"Point-to-point messages submitted by Comm.Send across all worlds.")
	metricBytesSent = metrics.NewCounter("mpi_bytes_sent_total",
		"Payload bytes submitted by Comm.Send across all worlds.")
	metricActiveWorlds = metrics.NewGauge("mpi_active_worlds",
		"Worlds currently executing inside mpi.Run.")
	metricRecvWait = metrics.NewHistogram("mpi_recv_wait_seconds",
		"Time a rank spent blocked in Recv before its message arrived (only waits that actually blocked are recorded).",
		metrics.DurationOpts)
	metricBarrier = metrics.NewHistogram("mpi_barrier_seconds",
		"Wall time of Comm.Barrier calls, per participating rank.",
		metrics.DurationOpts)
)
