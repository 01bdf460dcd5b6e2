// Package service implements mapd, a long-running topology-aware mapping
// service over the paper's heuristics. A request names a modelled cluster, a
// communication pattern and a heuristic selector; the response carries the
// rank permutation, the modelled default/reordered latency at each requested
// message size and the per-size adaptive routing decision.
//
// The service is concurrent at the request level — the first layer of this
// codebase that is — and built from four cooperating mechanisms:
//
//   - a content-addressed result table: requests are canonicalised and
//     hashed (topology fingerprint, pattern fingerprint, heuristic, sizes)
//     so the recurring (topology, pattern) requests of job-launch traffic
//     are answered from memory, and concurrent identical requests compute
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
//
// Both tables, and every memo inside a topology context, are memo.Tables.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memo"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/store"
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
	// CacheBytes bounds the result cache's approximate heap footprint
	// (default 256 MiB). The entry bound still applies; whichever is hit
	// first evicts, and a response larger than the whole budget is served
	// but not kept.
	CacheBytes int64
	// Store, when set, persists computed responses across restarts. The
	// service owns neither opening nor closing it.
	Store *store.Store
	// Shard, when set, makes this replica one shard of a consistent-hash
	// fleet: misses on keys another replica owns are forwarded there.
	Shard *ShardConfig
	// ShedOnPressure turns the /readyz queue-depth threshold into admission
	// control: once the pool queue reaches 2x Workers, new computations
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
	if out.CacheBytes <= 0 {
		out.CacheBytes = defaultCacheBytes
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 10 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 60 * time.Second
	}
	return out
}

// maxQueue is the pool queue depth at which /readyz starts shedding, and
// ShedOnPressure with it: two waiting computations per worker.
func (s *Service) maxQueue() int { return 2 * s.cfg.Workers }

// Service is the mapping service. Create with New, share freely across
// goroutines, Close when done.
type Service struct {
	cfg      Config
	pool     *workerPool
	results  memo.Table[string, *Response]    // see cache.go; a build in flight is its key's single flight
	contexts memo.Table[ctxKey, *topoContext] // see topoctx.go
	stats    *statsCollector

	store *store.Store
	shard atomic.Pointer[shardState]
}

// New builds a Service from cfg (zero value: all defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	stats := newStatsCollector()
	s := &Service{
		cfg:   cfg,
		pool:  newWorkerPool(cfg.Workers, stats.queueDepth),
		stats: stats,
		store: cfg.Store,
	}
	s.results.MaxEntries, s.results.MaxBytes, s.results.Size = cfg.CacheEntries, cfg.CacheBytes, approxResponseBytes
	s.results.OnEvict = stats.evictions.Inc
	s.results.OnResize = func(n int, bytes int64) {
		stats.cacheEntries.Set(int64(n))
		stats.cacheBytes.Set(bytes)
	}
	s.contexts.MaxEntries, s.contexts.MaxBytes = maxContexts, maxContextBytes
	s.contexts.Size = func(e *topoContext) int64 { return contextRankCost*int64(e.procs) + e.grown.Load() }
	s.contexts.OnEvict = stats.contextEvictions.Inc
	s.contexts.OnResize = func(n int, _ int64) { stats.contexts.Set(int64(n)) }
	s.refreshStoreGauges()
	if cfg.Shard != nil {
		s.setShardState(cfg.Shard.Self, cfg.Shard.Peers, cfg.Shard.VNodes)
	}
	return s
}

// Close drains the worker pool. In-flight computations finish; subsequent
// Compute calls panic.
func (s *Service) Close() { s.pool.close() }

// Compute answers one mapping request: a batch of one. The error return is
// reserved for invalid requests and internal failures; deadline pressure
// instead yields a valid response with Degraded set and the identity mapping,
// so callers always have something runnable.
func (s *Service) Compute(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	s.stats.begin()
	c, err := s.compile(req)
	var resp *Response
	if err == nil {
		var out []*Response
		out, err = s.serveItems(ctx, []*compiled{c}, start)
		resp = out[0]
	}
	s.stats.end(start, outcomeFor(resp))
	return resp, err
}

// serveItems answers a request's compiled items — its one, or a batch's —
// under the request's budget, each by the same trip through the cache
// hierarchy. The hit pass answers what the result table or the store holds.
// The resolve pass joins every miss to its key's single flight: a follower
// waits for its leader; a leader whose key a peer owns rides that peer's one
// forward hop, unless the peer refuses it as another model epoch's; every
// other leader computes on the pool, and only those results are stored.
// out[i] is item i's stamped response, nil exactly when the item failed; err
// is the first failed item's error. Counting the requests is the callers'
// part.
func (s *Service) serveItems(ctx context.Context, items []*compiled, start time.Time) (out []*Response, err error) {
	ctx, cancel := s.budget(ctx, items[0].timeout)
	defer cancel()

	out = make([]*Response, len(items))
	hits := 0
	for i, c := range items {
		if resp, ok := s.cached(c.key, c.rec); ok {
			out[i] = stamp(resp, true, start, c.rec)
			hits++
		}
	}
	if hits == len(items) {
		return out, nil
	}

	// Admission is decided once per request, before the fan-out: a batch's
	// items queue on the pool by design, so letting each test the queue depth
	// would make a batch wider than the threshold shed its own tail.
	shed := s.underPressure()
	errs := make([]error, len(items))
	finish := func(i int, resp *Response, err error) {
		if errs[i] = err; err == nil {
			out[i] = stamp(resp, false, start, items[i].rec)
		}
	}
	// compute answers leader i on this replica. Only local computes persist:
	// the owning shard's store is the system of record for its keyspace
	// slice. A degraded response reaches the requests waiting on the flight
	// but is not kept.
	compute := func(i int, flight *memo.Entry[string, *Response]) {
		resp, err := s.computeLocal(ctx, items[i], shed)
		keep := err == nil && !resp.Degraded
		if keep {
			s.storePut(items[i].key, resp)
		}
		s.results.Publish(flight, resp, err, keep)
		finish(i, resp, err)
	}
	var tasks []func()
	var remote map[string][]int                  // peer URL -> the leaders it owns
	var flights []*memo.Entry[string, *Response] // of those leaders
	for i, c := range items {
		if out[i] != nil {
			continue
		}
		flight, lead := s.results.Join(c.key)
		owner, url, isRemote := s.shardFor(c.key)
		switch {
		case lead && isRemote && !c.forwarded:
			mark(c.rec, "forward:"+owner)
			if remote == nil {
				remote, flights = make(map[string][]int), make([]*memo.Entry[string, *Response], len(items))
			}
			remote[url] = append(remote[url], i)
			flights[i] = flight
		case lead:
			tasks = append(tasks, func() { compute(i, flight) })
		default:
			s.stats.flightShared.Inc()
			mark(c.rec, "joined-inflight")
			tasks = append(tasks, func() {
				resp, err := flight.Wait(ctx)
				switch {
				case err == nil:
					finish(i, resp, nil)
				case memo.Expired(ctx) != nil:
					// The leader is still computing, or failed, and this
					// caller's budget is spent: degrade independently.
					mark(c.rec, "deadline-while-waiting")
					finish(i, degradedResponse(c), nil)
				default:
					// The leader failed under its own budget; this caller has
					// one left.
					again, err := s.serveItems(ctx, items[i:i+1], start)
					out[i], errs[i] = again[0], err
				}
			})
		}
	}
	for url, idxs := range remote {
		tasks = append(tasks, func() {
			got, err := s.forward(ctx, url, items, idxs)
			if errors.Is(err, errOtherEpoch) {
				// The owner runs another model: its answers are not this
				// replica's to serve or keep, so the items compute here.
				var wg sync.WaitGroup
				for _, i := range idxs {
					mark(items[i].rec, "forward-other-epoch")
					wg.Add(1)
					go func() { defer wg.Done(); compute(i, flights[i]) }()
				}
				wg.Wait()
				return
			}
			for pos, i := range idxs {
				resp := got[pos]
				if resp == nil {
					// A dead, slow or short-answering peer must not take this
					// replica's availability with it.
					mark(items[i].rec, "forward-failed")
					resp = degradedResponse(items[i])
				}
				s.results.Publish(flights[i], resp, nil, !resp.Degraded)
				finish(i, resp, nil)
			}
		})
	}
	// The first task runs on this goroutine, so a single request's one task
	// costs no goroutine hand-off.
	var wg sync.WaitGroup
	for _, task := range tasks[1:] {
		wg.Add(1)
		go func() { defer wg.Done(); task() }()
	}
	tasks[0]()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// mark records a phase marker on a traced request's recorder; rec is nil for
// an untraced one.
func mark(rec *trace.Recorder, name string) {
	rec.Record(trace.Event{Kind: trace.KindPoint, Peer: -1, Name: name})
}

// cached answers key from the result table or, promoted into it, from the
// persistent store: a warm store answers without recomputing, as a
// (persistent) cache hit.
func (s *Service) cached(key string, rec *trace.Recorder) (*Response, bool) {
	if resp, ok := s.results.Get(key); ok {
		s.stats.cacheHits.Inc()
		mark(rec, "cache-hit")
		return resp, true
	}
	s.stats.cacheMisses.Inc()
	resp, ok := s.storeGet(key)
	if ok {
		mark(rec, "store-hit")
		s.results.Put(key, resp)
	}
	return resp, ok
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

// computeLocal answers a flight leader's key on this replica: the identity
// mapping when admission control shed the request, otherwise a computation
// on the worker pool. A deadline while queueing (pool saturated) degrades at
// once; one inside the computation is caught by the heuristic loops.
func (s *Service) computeLocal(ctx context.Context, c *compiled, shed bool) (resp *Response, err error) {
	if shed {
		s.stats.shed.Inc()
		mark(c.rec, "shed")
		return degradedResponse(c), nil
	}
	done := make(chan struct{})
	if s.pool.submit(ctx, func() {
		defer close(done)
		resp, err = s.run(ctx, c)
	}) != nil {
		mark(c.rec, "deadline-in-queue")
		return degradedResponse(c), nil
	}
	<-done
	return resp, err
}

// underPressure is the admission test of ShedOnPressure: the pool queue has
// reached the /readyz threshold.
func (s *Service) underPressure() bool {
	return s.cfg.ShedOnPressure && s.stats.queueDepth.Value() >= int64(s.maxQueue())
}

// Readiness is the /readyz verdict.
type Readiness struct {
	Ready bool `json:"ready"`
	// QueueDepth is the number of submissions waiting for a pool worker;
	// MaxQueue the shedding threshold.
	QueueDepth int64  `json:"queue_depth"`
	MaxQueue   int    `json:"max_queue"`
	Reason     string `json:"reason,omitempty"`
}

// Ready reports whether the service should accept new traffic: it sheds
// (not ready) once the pool queue reaches maxQueue, before submissions start
// burning whole request deadlines waiting for a worker.
func (s *Service) Ready() Readiness {
	r := Readiness{QueueDepth: s.stats.queueDepth.Value(), MaxQueue: s.maxQueue()}
	if r.QueueDepth >= int64(r.MaxQueue) {
		r.Reason = fmt.Sprintf("pool queue depth %d at shedding threshold %d", r.QueueDepth, r.MaxQueue)
		return r
	}
	r.Ready = true
	return r
}

// outcomeFor classifies a request's answer; nil is a failed request.
func outcomeFor(resp *Response) int {
	switch {
	case resp == nil:
		return outcomeError
	case resp.Degraded:
		return outcomeDegraded
	}
	return outcomeOK
}

// stamp copies base and fills the per-request fields. Cached and shared
// responses are immutable; the copy keeps them so, and shares their
// encoding.
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

// degradedResponse is the graceful-degradation fallback: the identity
// mapping keeps the job runnable with the default rank order. It names no
// shard, having computed nothing.
func degradedResponse(c *compiled) *Response {
	resp := &Response{
		Mapping:   core.Identity(c.procs),
		Heuristic: c.selector,
		Order:     c.order,
		Degraded:  true,
	}
	resp.seal() // integers and strings: cannot fail
	return resp
}

// contextHeuristics maps selector names to the cancellable heuristics.
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
func (s *Service) run(ctx context.Context, c *compiled) (*Response, error) {
	s.stats.computes.Inc()
	oracle, err := c.tc.oracleFor(ctx)
	if err != nil {
		if memo.Expired(ctx) != nil {
			return degradedResponse(c), nil
		}
		return nil, err
	}
	mark(c.rec, "oracle")
	mark(c.rec, "distances")
	if memo.Expired(ctx) != nil {
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
			mark(c.rec, "evaluated:"+cands[i])
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
			if evals[i].err != nil && memo.Expired(ctx) == nil {
				return nil, evals[i].err
			}
		}
		mark(c.rec, "deadline-degraded")
		return degradedResponse(c), nil
	}
	win := &evals[best]
	mark(c.rec, "selected:"+win.name)
	resp := &Response{
		Mapping:   win.mapping,
		Heuristic: win.name,
		Order:     c.order,
		Results:   win.results,
		GraphCost: win.gcost,
		Shard:     s.shardSelf(),
	}
	if c.graph == nil {
		// The winner was priced on this schedule, so the memo holds it.
		schedule, err := c.tc.scheduleFor(ctx, c.pattern)
		if err != nil {
			return nil, err
		}
		resp.Schedule = schedule.Name
	}
	if err := resp.seal(); err != nil {
		return nil, fmt.Errorf("service: encoding the response: %w", err)
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
		ev.mapping, ev.err = c.tc.heurMaps.Do(ctx, name, func() (core.Mapping, error) {
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
		err = memo.Expired(ctx)
	}
	if err != nil {
		ev.err = err
		return ev
	}
	for _, size := range c.sizes {
		// One cancellation point per size keeps long sweeps inside the
		// deadline at size granularity.
		if ev.err = memo.Expired(ctx); ev.err != nil {
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
