// Package service implements mapd, a long-running topology-aware mapping
// service over the paper's heuristics. A request names a modelled cluster, a
// communication pattern and a heuristic selector; the response carries the
// rank permutation, the modelled default/reordered latency at each requested
// message size and the per-size adaptive routing decision.
//
// The service is concurrent at the request level — the first layer of this
// codebase that is — and built from five cooperating mechanisms:
//
//   - a content-addressed result cache: requests are canonicalised and
//     hashed (topology fingerprint, pattern fingerprint, heuristic, sizes)
//     so the recurring (topology, pattern) requests of job-launch traffic
//     are answered from memory;
//   - single-flight deduplication: concurrent identical requests compute
//     once, with followers sharing the leader's result;
//   - a topology-context table: what depends only on (topology, procs,
//     layout) — cluster, fingerprint, layout, distance oracle, priced
//     machine, heuristic mappings, schedules, pricing profiles — is built
//     once and kept across requests (at most 64 contexts and 256 MiB of
//     them), read-only once built, and never hands a build that failed under
//     one request's deadline to another request as its failure;
//   - a bounded worker pool sharding independent computations across cores,
//     with "auto" mode racing the four fine-tuned heuristics in parallel
//     and keeping the winner by modelled cost;
//   - per-request deadlines threaded as context cancellation into the
//     heuristic traversal loops, so an over-budget request degrades to the
//     identity mapping (Degraded=true) instead of blocking a worker.
package service

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config tunes a Service.
type Config struct {
	// Workers bounds concurrent mapping computations (default: NumCPU).
	Workers int
	// CacheEntries bounds the result cache (default 512).
	CacheEntries int
	// DefaultTimeout applies to requests without timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline (default 60s).
	MaxTimeout time.Duration
	// Params overrides the cost-model constants (default simnet.DefaultParams).
	Params *simnet.Params
	// SLOLatency is the per-request latency objective the burn-rate alerts
	// measure against (default 500ms).
	SLOLatency time.Duration
	// SLOTarget is the objective's success fraction; the error budget is
	// 1-SLOTarget (default 0.99).
	SLOTarget float64
	// SLOTick is the burn-rate sampling period (default 10s).
	SLOTick time.Duration
	// ReadyMaxQueue is the pool queue depth at which /readyz starts
	// shedding (default 2x Workers).
	ReadyMaxQueue int
	// CacheBytes bounds the result cache's approximate heap footprint
	// (default 256 MiB). The entry bound still applies; whichever is hit
	// first evicts.
	CacheBytes int64
	// Store, when set, persists computed responses and synth tables across
	// restarts. The service owns neither opening nor closing it.
	Store *store.Store
	// Shard, when set, makes this replica one shard of a consistent-hash
	// fleet: misses on keys another replica owns are forwarded there.
	Shard *ShardConfig
	// ShedOnPressure turns the /readyz queue-depth threshold into admission
	// control: once the pool queue reaches ReadyMaxQueue, new computations
	// answer with the identity mapping (Degraded) instead of queueing. Off
	// by default — single-process embedders prefer to absorb bursts.
	ShedOnPressure bool
}

func (cfg *Config) withDefaults() Config {
	out := *cfg
	if out.Workers <= 0 {
		out.Workers = runtime.NumCPU()
	}
	if out.CacheEntries <= 0 {
		out.CacheEntries = 512
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 10 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 60 * time.Second
	}
	if out.SLOLatency <= 0 {
		out.SLOLatency = 500 * time.Millisecond
	}
	if out.SLOTarget <= 0 || out.SLOTarget >= 1 {
		out.SLOTarget = 0.99
	}
	if out.SLOTick <= 0 {
		out.SLOTick = 10 * time.Second
	}
	if out.ReadyMaxQueue <= 0 {
		out.ReadyMaxQueue = 2 * out.Workers
	}
	return out
}

// Service is the mapping service. Create with New, share freely across
// goroutines, Close when done.
type Service struct {
	cfg      Config
	pool     *workerPool
	cache    *resultCache
	contexts *contextTable
	flight   onceMap[string, *Response] // single-flight by cache key
	stats    *statsCollector
	burn     burnTracker
	stopBurn chan struct{}
	stopOnce sync.Once

	store *store.Store
	shard atomic.Pointer[shardState]

	synthMu     sync.Mutex
	synthTables map[string]*synth.Table // topology fingerprint -> table
}

// New builds a Service from cfg (zero value: all defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	stats := newStatsCollector()
	s := &Service{
		cfg:         cfg,
		pool:        newWorkerPool(cfg.Workers, stats.queueDepth),
		cache:       newResultCache(cfg.CacheEntries, cfg.CacheBytes, stats.evictions, stats.cacheEntries, stats.cacheBytes),
		contexts:    newContextTable(stats, cfg.Params),
		stats:       stats,
		stopBurn:    make(chan struct{}),
		store:       cfg.Store,
		synthTables: make(map[string]*synth.Table),
	}
	s.loadSynthTables()
	s.refreshStoreGauges()
	if cfg.Shard != nil {
		s.setShardState(cfg.Shard.Self, cfg.Shard.Peers, cfg.Shard.VNodes, cfg.Shard.Client)
	}
	go s.burnLoop()
	return s
}

// Registry returns the service's private metrics registry, for merging into
// an exposition endpoint alongside the process default registry.
func (s *Service) Registry() *metrics.Registry { return s.stats.reg }

// Close drains the worker pool and stops the SLO sampler. In-flight
// computations finish; subsequent Compute calls panic.
func (s *Service) Close() {
	s.stopOnce.Do(func() { close(s.stopBurn) })
	s.pool.close()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats { return s.stats.snapshot() }

// Compute answers one mapping request. The error return is reserved for
// invalid requests and internal failures; deadline pressure instead yields
// a valid response with Degraded set and the identity mapping, so callers
// always have something runnable.
func (s *Service) Compute(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	c, err := s.compile(req)
	if err != nil {
		s.stats.begin()
		s.stats.end(start, outcomeError)
		return nil, err
	}
	return s.serveItem(ctx, req, c, start)
}

// serveItem is one compiled request's counted trip through serve.
func (s *Service) serveItem(ctx context.Context, req *Request, c *compiled, start time.Time) (*Response, error) {
	s.stats.begin()
	outcome := outcomeError
	defer func() { s.stats.end(start, outcome) }()
	resp, err := s.serve(ctx, req, c, start)
	if err != nil {
		return nil, err
	}
	outcome = outcomeFor(resp)
	return resp, nil
}

// serve answers a compiled request: local cache, then persistent store,
// then single-flight into either a forward to the owning shard or a local
// computation. serve does not touch the request-level counters — callers
// wrap it in begin/end.
func (s *Service) serve(ctx context.Context, req *Request, c *compiled, start time.Time) (*Response, error) {
	ctx, cancel := s.budget(ctx, c.timeout)
	defer cancel()

	var rec *trace.Recorder
	if c.trace {
		rec = trace.NewRecorder()
	}
	mark := func(name string) {
		rec.Record(trace.Event{Kind: trace.KindPoint, Peer: -1, Name: name})
	}

	if resp, ok := s.cache.get(c.key); ok {
		s.stats.cacheHits.Inc()
		mark("cache-hit")
		return stamp(resp, true, start, rec), nil
	}
	s.stats.cacheMisses.Inc()

	if resp, ok := s.storeGet(c.key); ok {
		// A warm store answers without recomputing: promote into the LRU
		// and serve as a (persistent) cache hit.
		mark("store-hit")
		s.cache.put(c.key, resp)
		return stamp(resp, true, start, rec), nil
	}

	call, leader := s.flight.join(c.key)
	if !leader {
		s.stats.flightShared.Inc()
		mark("joined-inflight")
		select {
		case <-call.done:
			if call.err != nil {
				return nil, call.err
			}
			return stamp(call.val, false, start, rec), nil
		case <-ctx.Done():
			// The leader is still computing but this caller's budget is
			// spent: degrade independently, leave the flight in place.
			mark("deadline-while-waiting")
			return stamp(degradedResponse(c), false, start, rec), nil
		}
	}

	if resp, ok := s.cache.get(c.key); ok {
		// The previous leader published and retired its flight between this
		// request's cache miss and its join: share that result rather than
		// compute the key a second time.
		s.flight.retire(c.key, call, resp, nil)
		s.stats.flightShared.Inc()
		mark("joined-completed")
		return stamp(resp, true, start, rec), nil
	}

	resp, computed, err := s.leaderServe(ctx, req, c, mark)
	if err == nil && !resp.Degraded {
		s.cache.put(c.key, resp)
		if computed {
			// Only locally computed results persist: the owning shard's
			// store is the system of record for its keyspace slice.
			s.storePut(c.key, resp)
		}
	}
	s.flight.retire(c.key, call, resp, err)
	if err != nil {
		return nil, err
	}
	return stamp(resp, false, start, rec), nil
}

// budget bounds ctx (nil: background) by a request's timeout: 0 selects the
// server default, and MaxTimeout caps every request.
func (s *Service) budget(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, timeout)
}

// leaderServe resolves a cache-missed key as the flight leader: forward to
// the owning shard when the ring says the key lives elsewhere, shed under
// queue pressure when admission control is on, otherwise compute locally.
// computed reports whether the response was produced by this replica.
func (s *Service) leaderServe(ctx context.Context, req *Request, c *compiled, mark func(string)) (resp *Response, computed bool, err error) {
	if owner, url, remote := s.shardFor(c.key); remote && !c.forwarded {
		mark("forward:" + owner)
		resp, err := s.forwardRequest(ctx, url, req)
		if err != nil {
			// A dead or overloaded peer must not take this replica's
			// availability with it: degrade to the identity mapping.
			mark("forward-failed")
			return degradedResponse(c), false, nil
		}
		return resp, false, nil
	}
	// A batch item carries its batch's decision; a single request asks now.
	if c.shed != nil && *c.shed || c.shed == nil && s.underPressure() {
		s.stats.shed.Inc()
		mark("shed")
		return degradedResponse(c), false, nil
	}
	// On the worker pool: a deadline while queueing (pool saturated) degrades
	// immediately; one inside the computation is caught by the heuristic loops.
	done := make(chan struct{})
	if s.pool.submit(ctx, func() {
		defer close(done)
		resp, err = s.run(ctx, c, mark)
	}) != nil {
		mark("deadline-in-queue")
		resp = degradedResponse(c)
	} else {
		<-done
	}
	if err == nil {
		resp.Shard = s.shardSelf()
	}
	return resp, true, err
}

// underPressure is the admission test of ShedOnPressure: the pool queue has
// reached the /readyz threshold.
func (s *Service) underPressure() bool {
	return s.cfg.ShedOnPressure && s.stats.queueDepth.Value() >= int64(s.cfg.ReadyMaxQueue)
}

func outcomeFor(resp *Response) int {
	if resp.Degraded {
		return outcomeDegraded
	}
	return outcomeOK
}

// stamp copies base and fills the per-request fields. Cached and shared
// responses are immutable; the copy keeps them so.
func stamp(base *Response, cached bool, start time.Time, rec *trace.Recorder) *Response {
	out := *base
	out.Cached = cached
	out.ElapsedMicros = time.Since(start).Microseconds()
	if rec != nil {
		evs := rec.Events(0)
		out.Trace = make([]TraceEvent, len(evs))
		for i, e := range evs {
			out.Trace[i] = TraceEvent{Name: e.Name, AtMicros: int64(e.When / time.Microsecond)}
		}
	}
	return &out
}

// expired reports whether ctx's budget is spent. It consults the clock as
// well as ctx.Err(): the now-memoised computes finish in single-digit
// milliseconds, faster than a loaded single-CPU runtime delivers timer
// cancellations, so checking only Err() would make tight deadlines
// nondeterministic.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// degradedResponse is the graceful-degradation fallback: the identity
// mapping keeps the job runnable with the default rank order.
func degradedResponse(c *compiled) *Response {
	return &Response{
		Mapping:   core.Identity(c.procs),
		Heuristic: c.selector,
		Order:     c.order,
		Degraded:  true,
	}
}

// contextHeuristics maps selector names to the cancellable heuristics. The
// oracle form lets the service feed them the compact hierarchical
// representation: for hierarchical clusters no O(p²) matrix is ever built.
var contextHeuristics = map[string]core.OracleHeuristic{
	"rdmh": core.RDMHOracle,
	"rmh":  core.RMHOracle,
	"bbmh": core.BBMHOracle,
	"bgmh": core.BGMHOracle,
	"bkmh": core.BKMHOracle,
}

// autoCandidates is the field "auto" races: the paper's four fine-tuned
// heuristics.
var autoCandidates = []string{"rdmh", "rmh", "bbmh", "bgmh"}

// candidates resolves the request's (validated) selector into the names of
// the heuristics to evaluate.
func candidates(c *compiled) []string {
	if c.selector != "auto" {
		return []string{c.selector}
	}
	if c.graph == nil {
		return autoCandidates
	}
	// For arbitrary graphs the general-purpose mapper belongs in the race:
	// the fine-tuned heuristics assume their pattern.
	return append(append([]string(nil), autoCandidates...), "scotch")
}

// scotchMap maps the request's pattern graph with the general-purpose mapper.
func scotchMap(ctx context.Context, c *compiled, d topology.Oracle) (core.Mapping, error) {
	guest := c.graph
	if guest == nil {
		var err error
		if guest, err = patterns.Build(c.pattern, c.procs); err != nil {
			return nil, err
		}
	}
	return scotch.MapContext(ctx, guest, d, nil)
}

// evaluation is one candidate's scored result.
type evaluation struct {
	name    string
	mapping core.Mapping
	cost    float64 // comparison key: lower is better
	results []SizeResult
	gcost   *GraphCost
	err     error
}

// run performs the actual computation on a pool worker: distances, then
// every candidate heuristic in parallel, then selection by modelled cost.
// Whatever c's topology context already holds is not computed again.
func (s *Service) run(ctx context.Context, c *compiled, mark func(string)) (*Response, error) {
	s.stats.computes.Inc()
	oracle, err := c.tc.oracleFor(ctx)
	if err != nil {
		if expired(ctx) != nil {
			return degradedResponse(c), nil
		}
		return nil, err
	}
	if _, ok := oracle.(*topology.Hierarchy); ok {
		mark("oracle:hierarchy")
	} else {
		mark("oracle:dense")
	}
	mark("distances")
	if expired(ctx) != nil {
		return degradedResponse(c), nil
	}

	cands := candidates(c)
	evals := make([]evaluation, len(cands))
	var wg sync.WaitGroup
	for i := range cands {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			evals[i] = s.evaluate(ctx, c, oracle, cands[i])
			mark("evaluated:" + cands[i])
		}(i)
	}
	wg.Wait()

	best := -1
	for i := range evals {
		if evals[i].err != nil {
			continue
		}
		if best < 0 || evals[i].cost < evals[best].cost {
			best = i
		}
	}
	if best < 0 {
		// Nothing finished. Deadline pressure degrades; anything else is a
		// real failure worth surfacing.
		for i := range evals {
			if evals[i].err != nil && expired(ctx) == nil {
				return nil, evals[i].err
			}
		}
		mark("deadline-degraded")
		return degradedResponse(c), nil
	}
	win := &evals[best]
	mark("selected:" + win.name)
	resp := &Response{
		Mapping:   win.mapping,
		Heuristic: win.name,
		Order:     c.order,
		Results:   win.results,
		GraphCost: win.gcost,
	}
	if c.graph == nil {
		// The winner was priced on this schedule, so the memo holds it.
		schedule, err := c.tc.scheduleFor(ctx, c.pattern)
		if err != nil {
			return nil, err
		}
		resp.Schedule = schedule.Name
	}
	return resp, nil
}

// evaluate computes one candidate's mapping and its modelled cost: the
// summed reordered latency across the size sweep for named patterns, the
// weighted-distance objective for explicit graphs. d is the topology
// context's oracle.
func (s *Service) evaluate(ctx context.Context, c *compiled, d topology.Oracle, name string) evaluation {
	ev := evaluation{name: name}
	if name == "scotch" {
		// Scotch reads the pattern graph, so it always runs; the oracle
		// heuristics depend only on the topology and are memoised per context.
		ev.mapping, ev.err = scotchMap(ctx, c, d)
	} else {
		ev.mapping, ev.err = c.tc.heurMaps.do(ctx, name, func() (core.Mapping, error) {
			return contextHeuristics[name](ctx, d, nil)
		})
	}
	if ev.err != nil {
		return ev
	}
	if c.graph != nil {
		gc := &GraphCost{
			Default:   graphCostOf(c.graph, d, core.Identity(c.procs)),
			Reordered: graphCostOf(c.graph, d, ev.mapping),
		}
		ev.gcost = gc
		ev.cost = float64(gc.Reordered)
		return ev
	}

	// This mirrors experiments.AdaptivePolicy exactly: default price on the
	// base schedule, reordered price on the order-preserved schedule over the
	// permuted layout, keep the reordering where it wins.
	base, reord, err := c.tc.profilesFor(ctx, c.pattern, ev.mapping, orderModes[c.order])
	if err == nil {
		// Building and profiling the schedule is the long step of a cold
		// request; pricing a size afterwards is two table reads.
		err = expired(ctx)
	}
	if err != nil {
		ev.err = err
		return ev
	}
	for _, size := range c.sizes {
		// One cancellation point per size keeps long sweeps inside the
		// deadline at size granularity.
		if ev.err = expired(ctx); ev.err != nil {
			return ev
		}
		def, err := base.Price(size)
		if err != nil {
			ev.err = err
			return ev
		}
		re, err := reord.Price(size)
		if err != nil {
			ev.err = err
			return ev
		}
		ev.results = append(ev.results, SizeResult{
			Bytes:            size,
			DefaultSeconds:   def,
			ReorderedSeconds: re,
			UseReordered:     re < def,
		})
		ev.cost += re
	}
	return ev
}

// orderModes maps the canonical order names to the schedule transforms.
var orderModes = map[string]sched.OrderMode{
	"initComm": sched.InitComm, "endShfl": sched.EndShuffle, "none": sched.NoOrderFix,
}

// graphCostOf is the mapping objective for explicit graphs: total
// weight x distance over every edge, with process u placed on slot m[u].
func graphCostOf(g *graph.Graph, d topology.Oracle, m core.Mapping) int64 {
	var sum int64
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				sum += e.W * int64(d.At(m[u], m[e.To]))
			}
		}
	}
	return sum
}
