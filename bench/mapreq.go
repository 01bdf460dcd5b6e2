package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/service"
)

// topoSpec is one of the modelled clusters the mapd mixes draw from.
type topoSpec struct {
	name  string
	spec  service.TopologySpec
	cores int
}

func fatTree(nodes, leaves, perLeaf, uplinks int) service.TopologySpec {
	return service.TopologySpec{
		Nodes: nodes, SocketsPerNode: 2, CoresPerSocket: 4,
		Network: &service.NetworkSpec{Kind: "fattree", Leaves: leaves, NodesPerLeaf: perLeaf, Uplinks: uplinks},
	}
}

// The topology axis of both mapd workloads (ISSUE 11): uniform 64, fat-tree
// 64/256/1024, torus 8x8x1 and 4x4x4 with 2x2-core nodes, and the GPC preset.
var topologies = []topoSpec{
	{"uniform-64", service.TopologySpec{Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4}, 64},
	{"fattree-64", fatTree(8, 2, 4, 2), 64},
	{"fattree-256", fatTree(32, 4, 8, 4), 256},
	{"fattree-1024", fatTree(128, 8, 16, 8), 1024},
	{"torus-64", service.TopologySpec{Nodes: 64, SocketsPerNode: 1, CoresPerSocket: 1,
		Network: &service.NetworkSpec{Kind: "torus", X: 8, Y: 8, Z: 1}}, 64},
	{"torus-256", service.TopologySpec{Nodes: 64, SocketsPerNode: 2, CoresPerSocket: 2,
		Network: &service.NetworkSpec{Kind: "torus", X: 4, Y: 4, Z: 4}}, 256},
	{"gpc", service.TopologySpec{Preset: "gpc"}, 4096},
}

const (
	tUniform64 = iota
	tFat64
	tFat256
	tFat1024
	tTorus64
	tTorus256
	tGPC
)

var (
	mapPatterns = []string{"ring", "recursive-doubling", "binomial-broadcast", "binomial-gather", "alltoall"}
	mapLayouts  = []string{"block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter"}
	// batchPatterns is the 4-pattern batch body: with default -shed a
	// 16-pattern batch degrades part of itself on a 2-core host (README).
	batchPatterns = []string{"ring", "recursive-doubling", "binomial-broadcast", "binomial-gather"}
)

type cellKind uint8

const (
	kindSingle cellKind = iota
	kindBatch
	kindGraph
)

// cell is one slot of a round's fixed composition: what the request asks
// for, minus the per-request unique size that makes its cache key new.
type cell struct {
	topo    int
	pattern int // index into mapPatterns (kindSingle)
	layout  int
	auto    bool
	kind    cellKind
	graphN  int // vertices == procs (kindGraph)
}

func (c cell) class() string {
	switch c.kind {
	case kindBatch:
		return topologies[c.topo].name + "/batch4"
	case kindGraph:
		return fmt.Sprintf("%s/graph%d", topologies[c.topo].name, c.graphN)
	}
	name := topologies[c.topo].name + "/" + mapPatterns[c.pattern]
	if c.auto {
		name += "/auto"
	}
	return name
}

// mapOp is one generated request with what its reply must satisfy.
type mapOp struct {
	cell  cell
	body  []byte
	procs int
	items int // responses expected: 1, or the batch width
	sizes int // results rows expected per response (0 for graphs)
	// newRound marks the first op of a round (a unit of fixed composition).
	newRound bool
	// round and slot, set on mapd-cold ops: which round the op belongs to and
	// which cell of coldRound it renders. The seed orders a round's ops; it
	// does not change what (round, slot) asks for.
	round, slot int
	// digests, set on mapd-launch ops, holds contentDigest of each response
	// of the population-phase reply this request must reproduce.
	digests []uint64
}

// randomGraph draws a connected sparse CSR graph on n vertices: a ring plus
// n seeded chords, weights 1..8. Both directions of every edge are listed.
func randomGraph(rng *rand.Rand, n int) *service.GraphSpec {
	type edge struct {
		to int
		w  int64
	}
	adj := make([][]edge, n)
	add := func(u, v int, w int64) {
		adj[u] = append(adj[u], edge{v, w})
		adj[v] = append(adj[v], edge{u, w})
	}
	for u := 0; u < n; u++ {
		add(u, (u+1)%n, int64(1+rng.Intn(8)))
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || (u+1)%n == v || (v+1)%n == u {
			v = (u + n/2) % n
		}
		add(u, v, int64(1+rng.Intn(8)))
	}
	g := &service.GraphSpec{N: n, XAdj: make([]int, n+1)}
	for u := 0; u < n; u++ {
		for _, e := range adj[u] {
			g.Adjncy = append(g.Adjncy, e.to)
			g.Weights = append(g.Weights, e.w)
		}
		g.XAdj[u+1] = len(g.Adjncy)
	}
	return g
}

// buildOp renders the request for c. uniq makes the cache key new: it is
// added to both message sizes, and no two ops of one daemon share it.
func buildOp(c cell, uniq int, rng *rand.Rand, trace bool) (mapOp, error) {
	t := topologies[c.topo]
	sizes := []int{1024 + uniq, 65536 + uniq}
	op := mapOp{cell: c, procs: t.cores, items: 1, sizes: len(sizes)}
	heuristic := ""
	if c.auto {
		heuristic = "auto"
	}
	var v any
	switch c.kind {
	case kindBatch:
		b := service.BatchRequest{Topology: t.spec, Layout: mapLayouts[c.layout], Heuristic: heuristic, Sizes: sizes}
		for _, name := range batchPatterns {
			b.Patterns = append(b.Patterns, service.BatchPattern{Name: name})
		}
		op.items = len(batchPatterns)
		v = b
	case kindGraph:
		op.procs, op.sizes = c.graphN, 0
		v = service.Request{
			Topology: t.spec, Procs: c.graphN, Layout: mapLayouts[c.layout],
			Pattern:   service.PatternSpec{Graph: randomGraph(rng, c.graphN)},
			Heuristic: "scotch", Sizes: sizes[:1], Trace: trace,
		}
	default:
		v = service.Request{
			Topology: t.spec, Layout: mapLayouts[c.layout],
			Pattern:   service.PatternSpec{Name: mapPatterns[c.pattern]},
			Heuristic: heuristic, Sizes: sizes, Trace: trace,
		}
	}
	body, err := json.Marshal(v)
	op.body = body
	return op, err
}

// isPermutation reports whether m is a permutation of 0..p-1.
func isPermutation(m []int, p int) bool {
	if len(m) != p {
		return false
	}
	seen := make([]bool, p)
	for _, v := range m {
		if v < 0 || v >= p || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// validateResponse checks one mapping response against what its request
// demands: not degraded, a permutation of 0..p-1, one finite positive result
// row per requested size (or a graph cost for explicit graphs).
func validateResponse(r *service.Response, procs, sizes int) error {
	if r == nil {
		return fmt.Errorf("missing response")
	}
	if r.Degraded {
		return fmt.Errorf("degraded response")
	}
	if !isPermutation(r.Mapping, procs) {
		return fmt.Errorf("mapping is not a permutation of 0..%d", procs-1)
	}
	if sizes == 0 {
		if r.GraphCost == nil {
			return fmt.Errorf("graph request without graph_cost")
		}
		return nil
	}
	if len(r.Results) != sizes {
		return fmt.Errorf("%d result rows for %d sizes", len(r.Results), sizes)
	}
	for _, row := range r.Results {
		for _, s := range []float64{row.DefaultSeconds, row.ReorderedSeconds} {
			if !finitePositive(s) {
				return fmt.Errorf("non-finite or non-positive modelled latency %v", s)
			}
		}
	}
	return nil
}

// decodeReply parses a 200 reply of op's shape into its responses.
func decodeReply(op *mapOp, reply []byte) ([]*service.Response, int64, error) {
	if op.cell.kind == kindBatch {
		var br service.BatchResponse
		if err := json.Unmarshal(reply, &br); err != nil {
			return nil, 0, err
		}
		if len(br.Responses) != op.items {
			return nil, 0, fmt.Errorf("%d batch responses for %d patterns", len(br.Responses), op.items)
		}
		return br.Responses, br.ElapsedMicros, nil
	}
	var r service.Response
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, 0, err
	}
	return []*service.Response{&r}, r.ElapsedMicros, nil
}

// checkReply is the full per-op verification, run outside the timed window.
func checkReply(op *mapOp, status int, reply []byte) ([]*service.Response, int64, error) {
	if status != 200 {
		return nil, 0, fmt.Errorf("status %d: %.120s", status, reply)
	}
	resps, elapsed, err := decodeReply(op, reply)
	if err != nil {
		return nil, 0, err
	}
	for i, r := range resps {
		if err := validateResponse(r, op.procs, op.sizes); err != nil {
			return nil, 0, fmt.Errorf("response %d: %w", i, err)
		}
	}
	return resps, elapsed, nil
}

// modelGains appends, per result row, 100*(default - chosen)/default where
// chosen is what the adaptive decision would run.
func modelGains(dst []float64, resps []*service.Response) []float64 {
	for _, r := range resps {
		for _, row := range r.Results {
			chosen := row.DefaultSeconds
			if row.UseReordered {
				chosen = row.ReorderedSeconds
			}
			dst = append(dst, 100*(row.DefaultSeconds-chosen)/row.DefaultSeconds)
		}
	}
	return dst
}

// contentDigest hashes everything of a response that must not change
// between the computed reply and a later cached one.
func contentDigest(r *service.Response) uint64 {
	c := *r
	c.Cached, c.ElapsedMicros, c.Trace = false, 0, nil
	h := fnv.New64a()
	json.NewEncoder(h).Encode(&c) //nolint:errcheck — hash writes cannot fail
	return h.Sum64()
}
