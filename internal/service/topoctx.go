package service

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// The context table's bounds (DESIGN.md, "Build-once tables"): at most
// maxContexts contexts and maxContextBytes charged as they grow, least
// recently used first out. A context is charged a per-rank allowance for what
// is O(p) in it and the measured size of what can grow faster: a torus
// oracle's node table, 4m² bytes over m nodes, and its schedules, 48p² for an
// all-to-all. The figures bound growth; they do not meter the heap.
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
// deadline reaches another request as a failure (see package memo).
type topoContext struct {
	key     ctxKey
	cluster *topology.Cluster
	fp      uint64 // cluster.Fingerprint(): the result-cache key's topology part
	procs   int
	layout  []int
	svc     *Service
	grown   atomic.Int64 // bytes charged beyond the per-rank allowance

	oracle    memo.Table[struct{}, topology.Oracle]
	machine   memo.Table[struct{}, *simnet.Machine]
	heurMaps  memo.Table[string, core.Mapping] // by oracle heuristic; readers must not mutate
	scheds    memo.Table[core.Pattern, *sched.Schedule]
	baseProfs memo.Table[core.Pattern, *simnet.PriceProfile]
	reordered memo.Table[progKey, *simnet.PriceProfile]
}

// progKey identifies one order-preserved profile: pattern, order fix, permutation.
type progKey struct {
	pattern core.Pattern
	mode    sched.OrderMode
	mapFP   uint64
}

// buildContext validates the topology-dependent request prefix and materialises it:
// cluster, process count, layout, fingerprint (of the cluster's parameters).
func (s *Service) buildContext(key ctxKey, spec *TopologySpec) (*topoContext, error) {
	cluster, err := buildCluster(spec)
	if err != nil {
		return nil, err
	}
	e := &topoContext{key: key, cluster: cluster, procs: key.procs, svc: s}
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
	e.fp = cluster.Fingerprint()
	return e, nil
}

// oracleFor returns the distance oracle: per-slot level coordinates, within
// the per-rank allowance, plus on a torus the m×m node table, charged at
// 4·m² bytes.
func (e *topoContext) oracleFor(ctx context.Context) (topology.Oracle, error) {
	return e.oracle.Do(ctx, struct{}{}, func() (topology.Oracle, error) {
		d, err := topology.NewDistances(e.cluster, e.layout)
		if err != nil {
			return nil, err
		}
		if m := int64(d.UnitCount(d.Levels() - 1)); m > 1 {
			e.charge(4 * m * m)
		}
		return d, nil
	})
}

// scheduleFor resolves the schedule the service prices for pat: the registry
// builder's, or — for a family-default pattern on a torus that covers every
// rank — the family's torus-native construction, the schedule-side win of the
// complete exchange (every mapping of a complete graph prices identically).
// Built once per context; its readers must not modify it.
func (e *topoContext) scheduleFor(ctx context.Context, pat core.Pattern) (*sched.Schedule, error) {
	return e.scheds.Do(ctx, pat, func() (*sched.Schedule, error) {
		s, err := e.buildSchedule(pat)
		if err == nil {
			var transfers int64
			for i := range s.Stages { // registry builders leave Pre empty
				transfers += int64(len(s.Stages[i].Transfers))
			}
			e.charge(48 * transfers)
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
	machine, err := e.machine.Do(ctx, struct{}{}, func() (*simnet.Machine, error) {
		return simnet.NewMachine(e.cluster, simnet.DefaultParams())
	})
	if err != nil {
		return nil, nil, err
	}
	base, err = e.baseProfs.Do(ctx, pat, func() (*simnet.PriceProfile, error) {
		return machine.ProfileSchedule(ctx, schedule, e.layout)
	})
	if err != nil {
		return nil, nil, err
	}
	key := progKey{pattern: pat, mode: mode, mapFP: mappingFingerprint(m)}
	reord, err = e.reordered.Do(ctx, key, func() (*simnet.PriceProfile, error) {
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

// contextFor returns the topology context of (spec, procs, layout) from the
// Service's context table, building it on first use. The wait for another
// request's build of it is unconditional: compilation precedes the request's
// budget, fails only on an invalid request, and builds O(maxCores) at most.
func (s *Service) contextFor(spec *TopologySpec, procs int, layout string) (*topoContext, error) {
	key, built := contextKey(spec, procs, layout), false
	e, err := s.contexts.Do(context.Background(), key, func() (*topoContext, error) {
		built = true
		return s.buildContext(key, spec)
	})
	if err == nil && built {
		s.stats.contextMisses.Inc()
	} else if err == nil {
		s.stats.contextHits.Inc()
	}
	return e, err
}

// charge records that e grew by n approximate bytes, and the table evicts
// down to its bounds. A context that alone exceeds the ceiling serves the
// requests that hold it and is dropped, flushing nothing on its way out.
func (e *topoContext) charge(n int64) {
	e.grown.Add(n)
	e.svc.contexts.Resize(e.key)
}
