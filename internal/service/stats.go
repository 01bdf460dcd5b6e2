package service

import (
	"time"

	"repro/internal/metrics"
)

// statsCollector holds the service's registry-backed instruments. Each
// Service owns a private registry so that per-instance counters stay exact
// under tests and multi-tenant embedding; mapd merges it with the process
// default registry at exposition time.
type statsCollector struct {
	reg *metrics.Registry

	requests     *metrics.Counter
	outcomes     *metrics.CounterVec
	ok           *metrics.Counter
	degraded     *metrics.Counter
	errored      *metrics.Counter
	inFlight     *metrics.Gauge
	cacheHits    *metrics.Counter
	cacheMisses  *metrics.Counter
	evictions    *metrics.Counter
	flightShared *metrics.Counter
	computes     *metrics.Counter
	cacheEntries *metrics.Gauge
	queueDepth   *metrics.Gauge
	latency      *metrics.Histogram
	burnRates    *metrics.GaugeVec
	burnFast     *metrics.Gauge
	burnSlow     *metrics.Gauge

	cacheBytes     *metrics.Gauge
	storeHits      *metrics.Counter
	storeMisses    *metrics.Counter
	storeAppends   *metrics.Counter
	storeRecords   *metrics.Gauge
	storeBytes     *metrics.Gauge
	storeLiveBytes *metrics.Gauge
	storeCompacts  *metrics.Gauge
	synthTables    *metrics.Gauge
	batches        *metrics.Counter
	batchPatterns  *metrics.Counter
	batchSize      *metrics.Histogram
	forwardsVec    *metrics.CounterVec
	forwardsOK     *metrics.Counter
	forwardsErr    *metrics.Counter
	forwardSecs    *metrics.Histogram
	shed           *metrics.Counter

	contextHits      *metrics.Counter
	contextMisses    *metrics.Counter
	contextEvictions *metrics.Counter
	contexts         *metrics.Gauge
}

// newStatsCollector builds the instrument set on its own registry.
func newStatsCollector() *statsCollector {
	reg := metrics.NewRegistry()
	s := &statsCollector{reg: reg}
	s.requests = reg.Counter("mapd_requests_total",
		"Mapping requests received.")
	s.outcomes = reg.CounterVec("mapd_responses_total",
		"Mapping responses by outcome.", "outcome")
	s.ok = s.outcomes.With("outcome", "ok")
	s.degraded = s.outcomes.With("outcome", "degraded")
	s.errored = s.outcomes.With("outcome", "error")
	s.inFlight = reg.Gauge("mapd_in_flight_requests",
		"Requests currently being served.")
	s.cacheHits = reg.Counter("mapd_cache_hits_total",
		"Requests answered from the result cache.")
	s.cacheMisses = reg.Counter("mapd_cache_misses_total",
		"Requests that missed the result cache.")
	s.evictions = reg.Counter("mapd_cache_evictions_total",
		"Result-cache entries evicted by the LRU bound.")
	s.flightShared = reg.Counter("mapd_flight_shared_total",
		"Cache misses that joined an in-flight computation.")
	s.computes = reg.Counter("mapd_computations_total",
		"Mapping computations actually performed.")
	s.cacheEntries = reg.Gauge("mapd_cache_entries",
		"Result-cache entries currently held.")
	s.contextHits = reg.Counter("mapd_topo_context_hits_total",
		"Requests and batches whose (topology, procs, layout) context was already held.")
	s.contextMisses = reg.Counter("mapd_topo_context_misses_total",
		"Requests and batches that built their topology context.")
	s.contextEvictions = reg.Counter("mapd_topo_context_evictions_total",
		"Topology contexts dropped by the table's entry or byte bound.")
	s.contexts = reg.Gauge("mapd_topo_contexts",
		"Topology contexts currently held.")
	s.queueDepth = reg.Gauge("mapd_pool_queue_depth",
		"Submissions waiting for a free pool worker.")
	s.latency = reg.Histogram("mapd_request_seconds",
		"End-to-end mapping request latency.", metrics.DurationOpts)
	s.burnRates = reg.GaugeVec("mapd_slo_burn_rate_milli",
		"SLO error-budget burn rate x1000 over the trailing window: 1000 "+
			"spends the budget exactly at the SLO period; higher burns faster.",
		"window")
	s.burnFast = s.burnRates.With("window", "fast")
	s.burnSlow = s.burnRates.With("window", "slow")
	s.cacheBytes = reg.Gauge("mapd_cache_bytes",
		"Approximate heap bytes held by the result cache.")
	s.storeHits = reg.Counter("mapd_store_hits_total",
		"Cache misses answered from the persistent store.")
	s.storeMisses = reg.Counter("mapd_store_misses_total",
		"Cache misses that also missed the persistent store.")
	s.storeAppends = reg.Counter("mapd_store_appends_total",
		"Responses appended to the persistent store.")
	s.storeRecords = reg.Gauge("mapd_store_records",
		"Live records in the persistent store.")
	s.storeBytes = reg.Gauge("mapd_store_bytes",
		"Persistent store log size on disk, including dead records.")
	s.storeLiveBytes = reg.Gauge("mapd_store_live_bytes",
		"Bytes of live records in the persistent store.")
	s.storeCompacts = reg.Gauge("mapd_store_compactions_total",
		"Log compactions performed by this process's store handle.")
	s.synthTables = reg.Gauge("mapd_synth_tables",
		"Synthesized-schedule tables held, one per topology fingerprint.")
	s.batches = reg.Counter("mapd_batches_total",
		"Batch mapping requests received from clients; a peer's forward hop is not one.")
	s.batchPatterns = reg.Counter("mapd_batch_patterns_total",
		"Patterns received inside client batch requests.")
	s.batchSize = reg.Histogram("mapd_batch_size",
		"Patterns per client batch request.", metrics.HistogramOpts{Start: 1, Factor: 2, Count: 12})
	s.forwardsVec = reg.CounterVec("mapd_forwards_total",
		"Requests forwarded to the owning shard, by outcome.", "outcome")
	s.forwardsOK = s.forwardsVec.With("outcome", "ok")
	s.forwardsErr = s.forwardsVec.With("outcome", "error")
	s.forwardSecs = reg.Histogram("mapd_forward_seconds",
		"Latency of shard-forwarded requests.", metrics.DurationOpts)
	s.shed = reg.Counter("mapd_shed_total",
		"Requests answered with the identity mapping by admission control.")
	return s
}

// Stats is a point-in-time snapshot of the service counters, shaped for the
// /stats endpoint. The field set and JSON names predate the metrics registry
// and are kept byte-compatible.
type Stats struct {
	Requests uint64 `json:"requests"`
	OK       uint64 `json:"ok"`
	Degraded uint64 `json:"degraded"`
	Errors   uint64 `json:"errors"`
	InFlight int64  `json:"in_flight"`

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	FlightShared uint64  `json:"flight_shared"` // misses that joined an in-flight computation
	Computes     uint64  `json:"computes"`      // actual mapping computations performed
	CacheEntries int     `json:"cache_entries"`
	HitRatio     float64 `json:"cache_hit_ratio"` // (hits + shared) / requests

	CacheBytes  int64  `json:"cache_bytes"`
	StoreHits   uint64 `json:"store_hits"`
	StoreMisses uint64 `json:"store_misses"`
	Batches     uint64 `json:"batches"`
	Forwards    uint64 `json:"forwards"`
	Shed        uint64 `json:"shed"`

	// The topology-context table: one lookup per request or batch.
	ContextHits      uint64 `json:"topo_context_hits"`
	ContextMisses    uint64 `json:"topo_context_misses"`
	ContextEvictions uint64 `json:"topo_context_evictions"`
	Contexts         int64  `json:"topo_contexts"`

	P50Micros int64 `json:"p50_us"`
	P99Micros int64 `json:"p99_us"`
}

func (s *statsCollector) begin() {
	s.requests.Inc()
	s.inFlight.Inc()
}

// outcome values recorded by end.
const (
	outcomeOK = iota
	outcomeDegraded
	outcomeError
)

func (s *statsCollector) end(start time.Time, outcome int) {
	s.inFlight.Dec()
	switch outcome {
	case outcomeOK:
		s.ok.Inc()
	case outcomeDegraded:
		s.degraded.Inc()
	default:
		s.errored.Inc()
	}
	s.latency.Observe(time.Since(start).Seconds())
}

func (s *statsCollector) batch(patterns int) {
	s.batches.Inc()
	s.batchPatterns.Add(uint64(patterns))
	s.batchSize.Observe(float64(patterns))
}

func (s *statsCollector) forwarded(start time.Time, err error) {
	if err != nil {
		s.forwardsErr.Inc()
	} else {
		s.forwardsOK.Inc()
	}
	s.forwardSecs.Observe(time.Since(start).Seconds())
}

// snapshot assembles the exported view from the registry instruments. The
// percentiles interpolate within the latency histogram's exponential buckets
// instead of sorting a sample window, so snapshots are O(buckets) and the
// request path stays allocation-free.
func (s *statsCollector) snapshot() Stats {
	out := Stats{
		Requests:     s.requests.Value(),
		OK:           s.ok.Value(),
		Degraded:     s.degraded.Value(),
		Errors:       s.errored.Value(),
		InFlight:     s.inFlight.Value(),
		CacheHits:    s.cacheHits.Value(),
		CacheMisses:  s.cacheMisses.Value(),
		FlightShared: s.flightShared.Value(),
		Computes:     s.computes.Value(),
		CacheEntries: int(s.cacheEntries.Value()),
		CacheBytes:   s.cacheBytes.Value(),
		StoreHits:    s.storeHits.Value(),
		StoreMisses:  s.storeMisses.Value(),
		Batches:      s.batches.Value(),
		Forwards:     s.forwardsOK.Value() + s.forwardsErr.Value(),
		Shed:         s.shed.Value(),

		ContextHits:      s.contextHits.Value(),
		ContextMisses:    s.contextMisses.Value(),
		ContextEvictions: s.contextEvictions.Value(),
		Contexts:         s.contexts.Value(),
	}
	if out.Requests > 0 {
		out.HitRatio = float64(out.CacheHits+out.FlightShared) / float64(out.Requests)
	}
	if s.latency.Count() > 0 {
		out.P50Micros = int64(s.latency.Quantile(0.50) * 1e6)
		out.P99Micros = int64(s.latency.Quantile(0.99) * 1e6)
	}
	return out
}
