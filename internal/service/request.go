package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Request is the body of a mapping request (POST /map). A request names a
// topology (preset or parameterised), a communication pattern (named
// generator or explicit graph), a heuristic selector and the message sizes
// the caller intends to use; the service answers with the rank permutation
// and the modelled latency of both communicators at each size.
type Request struct {
	Topology  TopologySpec `json:"topology"`
	Procs     int          `json:"procs,omitempty"`  // default: every core of the cluster
	Layout    string       `json:"layout,omitempty"` // default: block-bunch
	Pattern   PatternSpec  `json:"pattern"`
	Heuristic string       `json:"heuristic,omitempty"` // rdmh|rmh|bbmh|bgmh|bkmh|scotch|auto; default: the pattern's own
	Order     string       `json:"order,omitempty"`     // initComm|endShfl|none; default: what the pattern needs
	Sizes     []int        `json:"sizes,omitempty"`     // default: 1 KiB and 64 KiB
	// TimeoutMillis bounds the service time of this request. On expiry the
	// response degrades to the identity mapping with Degraded set instead
	// of failing. 0 selects the server default.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// Trace, when set, attaches a per-request trace recorder and echoes the
	// phase timeline in the response.
	Trace bool `json:"trace,omitempty"`
	// Forwarded marks a request relayed by a peer shard. The receiving
	// replica serves it locally even when the ring says another node owns
	// the key, so a request never bounces between replicas. Set by the
	// forwarding hop, not by clients.
	Forwarded bool `json:"forwarded,omitempty"`
}

// TopologySpec selects the modelled cluster: either a named preset or an
// explicit shape with an optional interconnect.
type TopologySpec struct {
	Preset         string       `json:"preset,omitempty"` // "gpc"
	Nodes          int          `json:"nodes,omitempty"`
	SocketsPerNode int          `json:"sockets_per_node,omitempty"`
	CoresPerSocket int          `json:"cores_per_socket,omitempty"`
	Network        *NetworkSpec `json:"network,omitempty"` // nil: uniform inter-node channel
}

// NetworkSpec describes the inter-node interconnect.
type NetworkSpec struct {
	Kind string `json:"kind"` // "fattree" or "torus"
	// Fat-tree parameters (two-level: leaves x nodes-per-leaf, uplinks
	// cables per leaf).
	Leaves       int `json:"leaves,omitempty"`
	NodesPerLeaf int `json:"nodes_per_leaf,omitempty"`
	Uplinks      int `json:"uplinks,omitempty"`
	// Torus dimensions.
	X int `json:"x,omitempty"`
	Y int `json:"y,omitempty"`
	Z int `json:"z,omitempty"`
}

// PatternSpec selects the communication pattern: a named generator
// ("ring", "recursive-doubling", "binomial-broadcast", "binomial-gather")
// or an explicit weighted graph in CSR form.
type PatternSpec struct {
	Name  string     `json:"name,omitempty"`
	Graph *GraphSpec `json:"graph,omitempty"`
}

// GraphSpec is a weighted undirected communication graph in CSR form:
// vertex u's neighbours are Adjncy[XAdj[u]:XAdj[u+1]] with matching entries
// of Weights (all 1 when Weights is empty). Each undirected edge may appear
// in one or both directions; duplicate insertions accumulate.
type GraphSpec struct {
	N       int     `json:"n"`
	XAdj    []int   `json:"xadj"`
	Adjncy  []int   `json:"adjncy"`
	Weights []int64 `json:"weights,omitempty"`
}

// SizeResult is the modelled latency comparison at one message size,
// including the adaptive-routing decision of experiments.AdaptivePolicy.
type SizeResult struct {
	Bytes            int     `json:"bytes"`
	DefaultSeconds   float64 `json:"default_s"`
	ReorderedSeconds float64 `json:"reordered_s"`
	UseReordered     bool    `json:"use_reordered"`
}

// GraphCost is the weighted-distance objective (sum over edges of
// weight x core distance) for explicit-graph requests, which have no
// schedule to price on the network model.
type GraphCost struct {
	Default   int64 `json:"default"`
	Reordered int64 `json:"reordered"`
}

// TraceEvent is one phase marker of a traced request.
type TraceEvent struct {
	Name     string `json:"name"`
	AtMicros int64  `json:"at_us"`
}

// Response is the body of a mapping response.
type Response struct {
	// Mapping is the rank permutation: Mapping[newRank] = slot of the core
	// that hosted the initial rank. The identity permutation when Degraded.
	Mapping []int `json:"mapping"`
	// Heuristic is the heuristic that produced the mapping — under "auto",
	// the winner of the modelled-cost comparison.
	Heuristic string `json:"heuristic"`
	Order     string `json:"order,omitempty"`
	// Schedule names the collective schedule the latency comparison priced —
	// the pattern's registry default, or the family's torus-native
	// construction when the cluster's interconnect fingerprints as a torus.
	Schedule string `json:"schedule,omitempty"`
	// Degraded reports that the request exceeded its deadline and the
	// service fell back to the identity mapping. Degraded responses are
	// never cached.
	Degraded bool `json:"degraded"`
	// Cached reports that the response was served from the result cache.
	Cached  bool         `json:"cached"`
	Results []SizeResult `json:"results,omitempty"`
	// GraphCost is set for explicit-graph requests instead of Results.
	GraphCost     *GraphCost   `json:"graph_cost,omitempty"`
	ElapsedMicros int64        `json:"elapsed_us"`
	Trace         []TraceEvent `json:"trace,omitempty"`
	// Shard names the replica that computed the response, when the service
	// runs sharded. Follows the response across the forward hop.
	Shard string `json:"shard,omitempty"`
}

// Default request parameters.
var defaultSizes = []int{1024, 65536}

// compiled is the canonical, validated form of a Request: everything the
// compute path needs, plus the content-addressed cache key.
type compiled struct {
	tc        *topoContext // cluster, layout and everything built on them
	procs     int
	pattern   core.Pattern // valid when graph == nil
	graph     *graph.Graph // non-nil for explicit-graph requests
	selector  string       // canonical heuristic selector
	order     string       // canonical order-mode name
	sizes     []int        // sorted, deduplicated
	trace     bool
	forwarded bool          // relayed by a peer shard: serve locally
	timeout   time.Duration // 0: server default
	key       string        // hex content hash over everything above
	// shed, when non-nil, is the admission decision ComputeBatch took for
	// the whole batch this item belongs to; nil asks leaderServe to test the
	// queue itself.
	shed *bool
}

// buildCluster materialises the topology spec.
func buildCluster(spec *TopologySpec) (*topology.Cluster, error) {
	if spec.Preset != "" {
		switch spec.Preset {
		case "gpc":
			return topology.GPC(), nil
		default:
			return nil, fmt.Errorf("service: unknown topology preset %q", spec.Preset)
		}
	}
	if spec.Nodes <= 0 || spec.SocketsPerNode <= 0 || spec.CoresPerSocket <= 0 {
		return nil, fmt.Errorf("service: topology needs a preset or positive nodes/sockets_per_node/cores_per_socket")
	}
	var net topology.Network
	if spec.Network != nil {
		switch spec.Network.Kind {
		case "", "none":
		case "fattree":
			if spec.Network.Leaves <= 0 || spec.Network.NodesPerLeaf <= 0 || spec.Network.Uplinks <= 0 {
				return nil, fmt.Errorf("service: fattree network needs positive leaves/nodes_per_leaf/uplinks")
			}
			net = topology.TwoLevelFatTree(spec.Network.Leaves, spec.Network.NodesPerLeaf, spec.Network.Uplinks)
		case "torus":
			if spec.Network.X <= 0 || spec.Network.Y <= 0 || spec.Network.Z <= 0 {
				return nil, fmt.Errorf("service: torus network needs positive x/y/z")
			}
			net = topology.NewTorus3D(spec.Network.X, spec.Network.Y, spec.Network.Z)
		default:
			return nil, fmt.Errorf("service: unknown network kind %q", spec.Network.Kind)
		}
	}
	return topology.NewCluster(spec.Nodes, spec.SocketsPerNode, spec.CoresPerSocket, net)
}

// buildGraph materialises a CSR graph spec.
func buildGraph(spec *GraphSpec) (*graph.Graph, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("service: graph needs a positive vertex count")
	}
	if len(spec.XAdj) != spec.N+1 {
		return nil, fmt.Errorf("service: xadj has %d entries, want n+1 = %d", len(spec.XAdj), spec.N+1)
	}
	if spec.XAdj[0] != 0 || spec.XAdj[spec.N] != len(spec.Adjncy) {
		return nil, fmt.Errorf("service: xadj must start at 0 and end at len(adjncy) = %d", len(spec.Adjncy))
	}
	if len(spec.Weights) != 0 && len(spec.Weights) != len(spec.Adjncy) {
		return nil, fmt.Errorf("service: weights has %d entries, adjncy %d", len(spec.Weights), len(spec.Adjncy))
	}
	g := graph.New(spec.N)
	for u := 0; u < spec.N; u++ {
		lo, hi := spec.XAdj[u], spec.XAdj[u+1]
		if lo > hi || hi > len(spec.Adjncy) {
			return nil, fmt.Errorf("service: xadj[%d..%d] = [%d,%d) out of order", u, u+1, lo, hi)
		}
		for e := lo; e < hi; e++ {
			v := spec.Adjncy[e]
			if v <= u {
				continue // count each undirected edge once, from its lower endpoint
			}
			w := int64(1)
			if len(spec.Weights) != 0 {
				w = spec.Weights[e]
			}
			if err := g.AddEdge(u, v, w); err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
		}
	}
	return g, nil
}

// compile validates req and resolves every default, producing the canonical
// form used by the compute path and the cache key.
func (s *Service) compile(req *Request) (*compiled, error) {
	tc, err := s.contexts.get(&req.Topology, req.Procs, req.Layout)
	if err != nil {
		return nil, err
	}
	return compileWith(tc, req)
}

// compileWith finishes compilation against a topology context. req's
// topology/procs/layout fields are ignored — the context is authoritative.
func compileWith(tc *topoContext, req *Request) (*compiled, error) {
	c := &compiled{tc: tc, procs: tc.procs, trace: req.Trace, forwarded: req.Forwarded}
	var err error
	var patFP uint64
	switch {
	case req.Pattern.Graph != nil && req.Pattern.Name != "":
		return nil, fmt.Errorf("service: pattern must be a name or a graph, not both")
	case req.Pattern.Graph != nil:
		if c.graph, err = buildGraph(req.Pattern.Graph); err != nil {
			return nil, err
		}
		if c.graph.N() != c.procs {
			return nil, fmt.Errorf("service: pattern graph has %d vertices for %d processes", c.graph.N(), c.procs)
		}
		patFP = c.graph.Fingerprint()
	case req.Pattern.Name != "":
		if c.pattern, err = core.ParsePattern(req.Pattern.Name); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		patFP = c.pattern.Fingerprint()
	default:
		return nil, fmt.Errorf("service: request needs a pattern name or graph")
	}

	c.selector = req.Heuristic
	if c.selector == "" {
		if c.graph != nil {
			c.selector = "scotch" // the only general-purpose mapper for arbitrary graphs
		} else {
			c.selector = heuristicNameFor(c.pattern)
		}
	}
	if c.selector != "auto" && c.selector != "scotch" && contextHeuristics[c.selector] == nil {
		return nil, fmt.Errorf("service: unknown heuristic %q", req.Heuristic)
	}

	if c.order, err = canonicalOrder(req.Order, c); err != nil {
		return nil, err
	}

	c.sizes = canonicalSizes(req.Sizes)
	if c.graph == nil {
		for _, size := range c.sizes {
			if size <= 0 {
				return nil, fmt.Errorf("service: message sizes must be positive, got %d", size)
			}
		}
	}

	if req.TimeoutMillis < 0 {
		return nil, fmt.Errorf("service: negative timeout_ms %d", req.TimeoutMillis)
	}
	c.timeout = time.Duration(req.TimeoutMillis) * time.Millisecond

	c.key = cacheKey(c, patFP)
	return c, nil
}

// canonicalSizes sorts and deduplicates the size sweep, defaulting when
// empty; identical sweeps in different orders share one cache entry.
func canonicalSizes(sizes []int) []int {
	if len(sizes) == 0 {
		return append([]int(nil), defaultSizes...)
	}
	out := append([]int(nil), sizes...)
	sort.Ints(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// canonicalOrder resolves the order-preservation mode: the explicit request
// value, or the mode the pattern's schedule needs (paper Section V-B).
func canonicalOrder(name string, c *compiled) (string, error) {
	if c.graph != nil {
		return "none", nil // no schedule, nothing to preserve
	}
	switch name {
	case "initComm", "endShfl", "none":
		return name, nil
	case "":
		// Order-sensitive patterns (registry flag: they deliver a permuted
		// output vector under reordering) default to the initComm fix.
		if spec, ok := sched.PatternFor(c.pattern); ok && spec.OrderSensitive {
			return "initComm", nil
		}
		return "none", nil
	default:
		return "", fmt.Errorf("service: unknown order mode %q", name)
	}
}

// heuristicNameFor names the pattern's own fine-tuned heuristic, from the
// pattern registry.
func heuristicNameFor(p core.Pattern) string {
	if spec, ok := sched.PatternFor(p); ok {
		return spec.Heuristic
	}
	return "auto"
}

// cacheKey derives the content-addressed key: a SHA-256 over the canonical
// encoding of everything that determines the result. The cluster is
// represented by its structural fingerprint, which the topology context holds.
func cacheKey(c *compiled, patternFP uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "mapd/1\x00topo:%x\x00p:%d\x00layout:%s\x00pat:%x\x00h:%s\x00order:%s\x00sizes:",
		c.tc.fp, c.procs, c.tc.key.layout, patternFP, c.selector, c.order)
	for _, size := range c.sizes {
		fmt.Fprintf(h, "%d,", size)
	}
	return hex.EncodeToString(h.Sum(nil))
}
