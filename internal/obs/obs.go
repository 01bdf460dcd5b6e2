// Package obs closes the loop between the cost model and the runtime: an
// always-on flight recorder that captures what the schedule executor
// actually measured, and a calibration engine that joins those measurements
// against the per-stage predictions of the same compiled program under
// simnet, so a miscalibrated cost model shows as measured skew instead of
// silently steering synthesis and the front-door selection tables toward
// wrong schedules.
//
// Three pieces:
//
//   - Recorder: a fixed-size ring of per-execution Profiles (schedule name,
//     payload bucket, per-pricing-stage wall time, bytes, rank). The write
//     path is allocation-free in steady state — one atomic ticket, one
//     per-slot try-lock, one struct copy — cheap enough to stay enabled on
//     every collective. Flight is the process-wide instance; worlds can
//     substitute their own through collective.Config.
//   - Calibrator: joins each measured Profile against simnet's per-stage
//     breakdown for the same compiled program and the same pricing-view
//     stage indices, maintaining per-(topology fingerprint, program, size
//     bucket) skew aggregates and fitted alpha/beta residuals. A world
//     attaches one through collective.Config.Calibrator; collective.Calibrate
//     prints its Report as the -calibrate table.
//   - the watchdog dump: when the mpi trace watchdog declares a world dead,
//     the flight ring is flushed to a JSON file so the last executions
//     before the deadlock survive the process.
//
// The package sits below mpi and collective (it imports neither), so the
// runtime can hook into it without an import cycle.
package obs

import "repro/internal/metrics"

// Instrumentation on the default registry of a process that runs
// collectives; mapd runs none and does not link this package. The skew
// families are labeled by topology fingerprint, program (schedule family)
// and ceil-log2 payload bucket — the same key the synthesis tables use, so a
// skewed entry names exactly the table rows it invalidates.
var (
	profilesRecorded = metrics.NewCounter("obs_profiles_recorded_total",
		"Execution profiles written into flight recorders.")
	profileDrops = metrics.NewCounter("obs_profile_drops_total",
		"Execution profiles dropped on flight-ring slot contention.")
	calibrationObservations = metrics.NewCounter("obs_calibration_observations_total",
		"Measured profiles joined against cost-model predictions.")
	calibrationErrors = metrics.NewCounter("obs_calibration_errors_total",
		"Profiles the calibrator could not join (pricing failure or shape mismatch).")
	skewGauge = metrics.NewGaugeVec("obs_skew_ratio_milli",
		"Latest measured/predicted schedule-time ratio x1000.",
		"topology", "program", "bucket")
	skewHist = metrics.NewHistogramVec("obs_skew_ratio",
		"Distribution of measured/predicted schedule-time ratios.",
		metrics.HistogramOpts{Start: 1.0 / 64, Factor: 2, Count: 14},
		"topology", "program", "bucket")
	alphaResidual = metrics.NewGaugeVec("obs_alpha_residual_nanos",
		"Fitted measured-minus-predicted latency intercept, nanoseconds.",
		"topology", "program", "bucket")
	betaRatio = metrics.NewGaugeVec("obs_beta_ratio_milli",
		"Fitted measured/predicted bandwidth-term slope ratio x1000.",
		"topology", "program", "bucket")
)

// Flight is the process-wide flight recorder the schedule executor records
// into unless a world installs its own (collective.Config.Flight).
var Flight = NewRecorder(DefaultFlightCapacity)

// DefaultFlightCapacity sizes the process-wide ring: large enough to hold
// the recent history of a long benchmark sweep, small enough (~300 B/slot)
// to be irrelevant in memory.
const DefaultFlightCapacity = 1024
