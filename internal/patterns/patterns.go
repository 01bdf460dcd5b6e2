// Package patterns builds explicit weighted process-topology graphs for the
// collective communication patterns of MPI_Allgather.
//
// The paper's fine-tuned heuristics never materialise these graphs — they
// derive the pattern from the algorithm in closed form — but a
// general-purpose mapper such as Scotch requires them as its guest graph
// (Section V: "with a general mapping library such as Scotch, we still need
// to build the collective topology graph first"). Building the graph is
// therefore charged to the Scotch path in the overhead analysis (Fig. 7b).
package patterns

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Build constructs the weighted communication graph of pattern pat over p
// processes. Edge weights are proportional to the number of data blocks the
// pair exchanges across the whole collective, so heavier edges correspond to
// the later stages of recursive doubling and to the root-adjacent edges of
// the binomial gather.
func Build(pat core.Pattern, p int) (*graph.Graph, error) {
	if p <= 0 {
		return nil, fmt.Errorf("patterns: process count must be positive, got %d", p)
	}
	g := graph.New(p)
	if p == 1 {
		return g, nil
	}
	switch pat {
	case core.RecursiveDoubling:
		for s := 1; s < p; s <<= 1 {
			for i := 0; i < p; i++ {
				j := i ^ s
				if j < p && i < j {
					// Stage log2(s) exchanges s blocks each way.
					if err := g.AddEdge(i, j, int64(s)); err != nil {
						return nil, err
					}
				}
			}
		}
	case core.Ring:
		for i := 0; i < p; i++ {
			j := (i + 1) % p
			if i == j {
				continue
			}
			// Each ring edge forwards one block per stage for p-1 stages.
			if err := g.AddEdge(i, j, int64(p-1)); err != nil {
				return nil, err
			}
		}
	case core.BinomialBroadcast:
		var err error
		TreeEdges(p, func(parent, child, _ int) {
			if err == nil {
				// Broadcast sends the full fixed-size message on every edge.
				err = g.AddEdge(parent, child, 1)
			}
		})
		if err != nil {
			return nil, err
		}
	case core.BinomialGather:
		var err error
		TreeEdges(p, func(parent, child, subtree int) {
			if err == nil {
				// Gather moves the child's whole subtree up this edge.
				err = g.AddEdge(parent, child, int64(subtree))
			}
		})
		if err != nil {
			return nil, err
		}
	case core.Alltoall:
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				// Complete exchange: every ordered pair moves one per-pair
				// block, so each undirected edge carries two.
				if err := g.AddEdge(i, j, 2); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("patterns: unknown pattern %v", pat)
	}
	return g, nil
}

// TreeEdges enumerates the edges of the binomial tree over p ranks rooted at
// rank 0, calling fn(parent, child, subtreeSize) for each. subtreeSize is
// the number of ranks in the child's subtree — the number of blocks a
// binomial gather moves across that edge. Edges are visited in the
// smaller-subtree-first depth-first order that BBMH uses.
func TreeEdges(p int, fn func(parent, child, subtreeSize int)) {
	span := 1
	for span < p {
		span <<= 1
	}
	var rec func(r, span int)
	rec = func(r, span int) {
		for i := 1; i < span; i <<= 1 {
			child := r + i
			if child >= p {
				break
			}
			size := i
			if child+size > p {
				size = p - child
			}
			fn(r, child, size)
			rec(child, i)
		}
	}
	rec(0, span)
}
