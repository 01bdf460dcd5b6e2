package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// The context table's bounds (DESIGN.md, "Topology contexts"). A context is
// charged a per-rank allowance for what is O(p) in it and the measured size
// of what can be O(p²): a dense (torus) oracle, 4p² bytes, and its schedules,
// 48p² for an all-to-all. The figures bound growth; they do not meter the heap.
const (
	maxContexts     = 64
	maxContextBytes = 256 << 20
	contextRankCost = 256
)

// ctxKey is the canonical (topology spec, procs, layout) a topology context
// is filed under, read off the request so that a lookup builds nothing. procs
// is 0 for "every core". Spellings it does not fold — a preset asked for its
// core count by number, fields the cluster builder ignores — file a second,
// equivalent context.
type ctxKey struct {
	spec   TopologySpec // Network nil: net holds its value
	net    NetworkSpec
	procs  int
	layout string
}

var defaultLayout = topology.BlockBunch.String()

func contextKey(spec *TopologySpec, procs int, layout string) ctxKey {
	k := ctxKey{spec: *spec, procs: procs, layout: layout}
	if spec.Network != nil {
		k.net, k.spec.Network = *spec.Network, nil
	}
	if layout == "" {
		k.layout = defaultLayout
	}
	if spec.Preset == "" && procs == spec.Nodes*spec.SocketsPerNode*spec.CoresPerSocket {
		k.procs = 0
	}
	return k
}

// topoContext is everything that depends only on (topology, procs, layout):
// the validated request prefix and, built by the first computation that needs
// each, the distance oracle, the priced machine, one mapping per oracle
// heuristic (they read the oracle, never the pattern or the sizes), one
// schedule per pattern and the pricing profiles. The table keeps contexts
// across requests, so a miss that differs from an earlier one in sizes alone
// is two PriceProfile.Price calls per size.
//
// Unrelated requests share a context for as long as the table holds it:
// everything in it is read-only once built (a response carries the memoised
// mapping slice itself), and no build that failed under one request's
// deadline reaches another request as a failure (see onceMap).
type topoContext struct {
	key     ctxKey
	cluster *topology.Cluster
	fp      uint64 // cluster.Fingerprint(): the result-cache key's topology part
	procs   int
	layout  []int

	// Guarded by table.mu: the approximate heap held and the context's place
	// in table.order (nil once dropped).
	table *contextTable
	bytes int64
	elem  *list.Element

	oracle    onceMap[struct{}, topology.Oracle]
	machine   onceMap[struct{}, *simnet.Machine]
	heurMaps  onceMap[string, core.Mapping] // by oracle heuristic; readers must not mutate
	scheds    onceMap[core.Pattern, *sched.Schedule]
	baseProfs onceMap[core.Pattern, *simnet.PriceProfile]
	reordered onceMap[progKey, *simnet.PriceProfile]
}

// progKey identifies one order-preserved profile: pattern, order fix, permutation.
type progKey struct {
	pattern core.Pattern
	mode    sched.OrderMode
	mapFP   uint64
}

// build validates the topology-dependent request prefix and materialises it:
// cluster, process count, layout, fingerprint.
func (t *contextTable) build(key ctxKey, spec *TopologySpec) (*topoContext, error) {
	cluster, err := buildCluster(spec)
	if err != nil {
		return nil, err
	}
	e := &topoContext{key: key, cluster: cluster, procs: key.procs, table: t}
	if e.procs == 0 {
		e.procs = cluster.TotalCores()
	}
	if e.procs <= 0 || e.procs > cluster.TotalCores() {
		return nil, fmt.Errorf("service: procs %d outside 1..%d", e.procs, cluster.TotalCores())
	}
	kind, err := topology.ParseLayoutKind(key.layout)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if e.layout, err = topology.Layout(cluster, e.procs, kind); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	// Hashing the routed wiring is the dear step (100 ms on GPC): last, so
	// that an invalid request never pays it, and once per cluster held.
	if sib := t.sibling(key); sib != nil {
		e.fp = sib.fp
	} else {
		e.fp = cluster.Fingerprint()
	}
	return e, nil
}

// oracleFor returns the distance oracle: the compact hierarchy (O(p) memory,
// bucketed find-closest kernel) where the network allows it, else — tori —
// the dense matrix and the scan kernel.
func (e *topoContext) oracleFor(ctx context.Context) (topology.Oracle, error) {
	return e.oracle.do(ctx, struct{}{}, func() (topology.Oracle, error) {
		o, err := topology.NewOracle(e.cluster, e.layout)
		if d, dense := o.(*topology.Distances); dense && err == nil {
			e.table.charge(e, 4*int64(len(d.D)))
		}
		return o, err
	})
}

// scheduleFor resolves the schedule the service prices for pat: the registry
// builder's, or — for a family-default pattern on a torus that covers every
// rank — the family's torus-native construction, the schedule-side win of the
// complete exchange (every mapping of a complete graph prices identically).
// Built once per context; its readers must not modify it.
func (e *topoContext) scheduleFor(ctx context.Context, pat core.Pattern) (*sched.Schedule, error) {
	return e.scheds.do(ctx, pat, func() (*sched.Schedule, error) {
		s, err := e.buildSchedule(pat)
		if err == nil {
			var transfers int64
			for i := range s.Stages { // registry builders leave Pre empty
				transfers += int64(len(s.Stages[i].Transfers))
			}
			e.table.charge(e, 48*transfers)
		}
		return s, err
	})
}

func (e *topoContext) buildSchedule(pat core.Pattern) (*sched.Schedule, error) {
	if spec, ok := sched.PatternFor(pat); ok && spec.FamilyDefault {
		if dims, torus := topology.TorusRankDims(e.cluster, e.procs); torus {
			if fam, err := spec.Family.Desc(); err == nil && fam.TorusBuilder != nil {
				return fam.TorusBuilder(dims)
			}
		}
	}
	return sched.ForPattern(pat, e.procs)
}

// profilesFor builds the default and the order-preserved pricing profiles for
// (pattern, mapping, mode) at most once per context. Both walk the context's
// one schedule in place (simnet.ProfileSchedule and ProfileReordered, whose
// order fix shares the base stages), so nothing is rebuilt, copied or hashed
// for the compile cache. Candidates converging to one permutation, patterns
// repeated across a batch and later requests for other sizes all land on the
// memo.
func (e *topoContext) profilesFor(ctx context.Context, pat core.Pattern, m core.Mapping, mode sched.OrderMode) (base, reord *simnet.PriceProfile, err error) {
	schedule, err := e.scheduleFor(ctx, pat)
	if err != nil {
		return nil, nil, err
	}
	machine, err := e.machine.do(ctx, struct{}{}, func() (*simnet.Machine, error) {
		return simnet.NewMachine(e.cluster, e.table.params)
	})
	if err != nil {
		return nil, nil, err
	}
	base, err = e.baseProfs.do(ctx, pat, func() (*simnet.PriceProfile, error) {
		return machine.ProfileSchedule(ctx, schedule, e.layout)
	})
	if err != nil {
		return nil, nil, err
	}
	key := progKey{pattern: pat, mode: mode, mapFP: mappingFingerprint(m)}
	reord, err = e.reordered.do(ctx, key, func() (*simnet.PriceProfile, error) {
		return machine.ProfileReordered(ctx, schedule, e.layout, m, mode)
	})
	return base, reord, err
}

// mappingFingerprint is an FNV-1a over the permutation's bytes.
func mappingFingerprint(m core.Mapping) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range m {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	return h
}

// contextTable is a Service's bounded, least-recently-used set of topology
// contexts. slots builds each key once however many requests race for it and
// forgets a failed build (an invalid spec never occupies a slot); order and
// bytes bound what is held. A dropped context serves out its holders.
type contextTable struct {
	slots  onceMap[ctxKey, *topoContext]
	stats  *statsCollector
	params simnet.Params // the cost-model constants every context's machine prices with

	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	order      *list.List // front = most recently used; values are *topoContext
}

func newContextTable(stats *statsCollector, params *simnet.Params) *contextTable {
	t := &contextTable{stats: stats, params: simnet.DefaultParams(), maxEntries: maxContexts, maxBytes: maxContextBytes, order: list.New()}
	if params != nil {
		t.params = *params
	}
	return t
}

// get returns the context of (spec, procs, layout), building it on first use.
// The wait for another request's build of it is unconditional: compilation
// precedes the request's budget and fails only on an invalid request.
func (t *contextTable) get(spec *TopologySpec, procs int, layout string) (*topoContext, error) {
	key, miss := contextKey(spec, procs, layout), false
	e, err := t.slots.do(context.Background(), key, func() (*topoContext, error) {
		miss = true
		e, err := t.build(key, spec)
		if err == nil {
			t.stats.contextMisses.Inc()
			t.mu.Lock()
			e.elem = t.order.PushFront(e) // filed before any other request can have it
			t.mu.Unlock()
			t.charge(e, contextRankCost*int64(e.procs))
		}
		return e, err
	})
	if err == nil && !miss {
		t.stats.contextHits.Inc()
		t.charge(e, 0)
	}
	return e, err
}

// sibling returns a held context of key's cluster — any layout, any process
// count — or nil.
func (t *contextTable) sibling(key ctxKey) *topoContext {
	key.procs, key.layout = 0, ""
	t.mu.Lock()
	defer t.mu.Unlock()
	for el := t.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*topoContext)
		k := e.key
		if k.procs, k.layout = 0, ""; k == key {
			return e
		}
	}
	return nil
}

// charge records that e is in use and grew by n approximate bytes, and evicts
// from the cold end down to both bounds. A context that alone exceeds the
// ceiling goes first, not last: it is built, used and dropped, as every
// context once was, and flushes nothing on its way out.
func (t *contextTable) charge(e *topoContext, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.elem == nil {
		return // dropped: it serves out the requests that have it, uncounted
	}
	e.bytes += n
	t.bytes += n
	if e.bytes > t.maxBytes {
		t.order.MoveToBack(e.elem)
	} else {
		t.order.MoveToFront(e.elem)
	}
	for t.order.Len() > t.maxEntries || t.bytes > t.maxBytes {
		victim := t.order.Remove(t.order.Back()).(*topoContext)
		victim.elem = nil
		t.bytes -= victim.bytes
		t.slots.forget(victim.key)
		t.stats.contextEvictions.Inc()
	}
	t.stats.contexts.Set(int64(t.order.Len()))
}

// onceMap is the service's one build-once-per-key primitive. join and retire
// are its single-flight form: the first caller of a key leads, later ones
// wait on the slot (or their own deadline) and share what the leader
// publishes, and the key retires with the flight. do is its memo form: a
// successful build stays, and distinct keys build in parallel (one map mutex
// would serialise the heavy builds a batch fans out across the pool). A
// failed build leaves nothing behind and is the builder's alone: it ran under
// the builder's deadline, so a waiter with budget of its own left retries
// under its own context (request A's 1 ms must not become request B's
// failure), and one without reports its own expiry.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceSlot[V]
}

type onceSlot[V any] struct {
	done chan struct{} // closed once val and err are set
	val  V
	err  error
}

// join returns k's slot, creating it when absent. leader reports whether the
// caller must produce the value and publish it.
func (om *onceMap[K, V]) join(k K) (s *onceSlot[V], leader bool) {
	om.mu.Lock()
	defer om.mu.Unlock()
	if s, ok := om.m[k]; ok {
		return s, false
	}
	if om.m == nil {
		om.m = make(map[K]*onceSlot[V])
	}
	s = &onceSlot[V]{done: make(chan struct{})}
	om.m[k] = s
	return s, true
}

// retire publishes the leader's result to every waiter, dropping k first so
// that a caller arriving afterwards, or a waiter retrying, starts afresh.
func (om *onceMap[K, V]) retire(k K, s *onceSlot[V], val V, err error) {
	om.forget(k)
	s.val, s.err = val, err
	close(s.done)
}

// forget drops k's slot, so that the next caller builds afresh.
func (om *onceMap[K, V]) forget(k K) {
	om.mu.Lock()
	delete(om.m, k)
	om.mu.Unlock()
}

func (om *onceMap[K, V]) do(ctx context.Context, k K, build func() (V, error)) (V, error) {
	for {
		s, leader := om.join(k)
		if leader {
			if s.val, s.err = build(); s.err != nil {
				om.retire(k, s, s.val, s.err)
			} else {
				close(s.done)
			}
			return s.val, s.err
		}
		var zero V
		select {
		case <-s.done:
		case <-ctx.Done():
			select {
			case <-s.done: // both ready: a finished build is never refused
			default:
				return zero, ctx.Err()
			}
		}
		if s.err == nil {
			return s.val, nil
		}
		if err := expired(ctx); err != nil {
			return zero, err
		}
	}
}
