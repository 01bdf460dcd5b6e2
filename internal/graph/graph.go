// Package graph provides the weighted undirected graphs and bisection
// primitives underlying the general-purpose (Scotch-like) mapping baseline.
//
// The mapping heuristics of the paper deliberately avoid building process
// topology graphs; the general mapper cannot. This package supplies the
// graph representation for communication patterns (see package patterns)
// and the balanced bisection machinery used by dual recursive
// bipartitioning (see package scotch).
package graph

import (
	"fmt"
	"sort"
)

// Edge is one endpoint of a weighted undirected edge.
type Edge struct {
	To int
	W  int64
}

// Graph is a weighted undirected graph over vertices 0..N-1 stored as
// adjacency lists. Parallel edge insertions accumulate their weights.
type Graph struct {
	n   int
	adj [][]Edge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v} with weight w, accumulating
// onto an existing edge if present. Self-loops and non-positive weights are
// rejected.
func (g *Graph) AddEdge(u, v int, w int64) error {
	switch {
	case u < 0 || u >= g.n || v < 0 || v >= g.n:
		return fmt.Errorf("graph: edge (%d,%d) outside 0..%d", u, v, g.n-1)
	case u == v:
		return fmt.Errorf("graph: self-loop at %d", u)
	case w <= 0:
		return fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, u, v)
	}
	g.addHalf(u, v, w)
	g.addHalf(v, u, w)
	return nil
}

func (g *Graph) addHalf(u, v int, w int64) {
	for i := range g.adj[u] {
		if g.adj[u][i].To == v {
			g.adj[u][i].W += w
			return
		}
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
}

// Neighbors returns the adjacency list of u (aliased, not copied).
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// WeightedDegree returns the total weight incident to u.
func (g *Graph) WeightedDegree(u int) int64 {
	var sum int64
	for _, e := range g.adj[u] {
		sum += e.W
	}
	return sum
}

// Edges returns every undirected edge exactly once (u < v), sorted by
// (u, v) for deterministic iteration.
func (g *Graph) Edges() []struct {
	U, V int
	W    int64
} {
	var out []struct {
		U, V int
		W    int64
	}
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if u < e.To {
				out = append(out, struct {
					U, V int
					W    int64
				}{u, e.To, e.W})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// TotalWeight returns the sum of all undirected edge weights.
func (g *Graph) TotalWeight() int64 {
	var sum int64
	for u := 0; u < g.n; u++ {
		sum += g.WeightedDegree(u)
	}
	return sum / 2
}

// CutWeight returns the total weight of edges crossing the vertex subset
// described by inA (restricted to the vertices listed in verts; vertices
// outside verts are ignored entirely).
func (g *Graph) CutWeight(verts []int, inA func(v int) bool) int64 {
	inSet := make(map[int]bool, len(verts))
	for _, v := range verts {
		inSet[v] = true
	}
	var cut int64
	for _, u := range verts {
		if !inA(u) {
			continue
		}
		for _, e := range g.adj[u] {
			if inSet[e.To] && !inA(e.To) {
				cut += e.W
			}
		}
	}
	return cut
}
