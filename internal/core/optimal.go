package core

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// CostFunc scores a mapping; lower is better. Pattern-specific costs are
// built with PatternCost.
type CostFunc func(d *topology.Distances, m Mapping) float64

// PatternCost returns the distance-weighted communication cost of a pattern
// under a mapping: the sum over the pattern's (weighted) edges of
// weight x distance. It is the objective the greedy heuristics chase; the
// contention-aware model in package simnet refines it.
func PatternCost(pat Pattern) (CostFunc, error) {
	switch pat {
	case RecursiveDoubling:
		return func(d *topology.Distances, m Mapping) float64 {
			var sum float64
			p := len(m)
			for i := 1; i < p; i <<= 1 {
				for r := 0; r < p; r++ {
					if r^i < p && r < r^i {
						sum += float64(i) * float64(d.At(m[r], m[r^i]))
					}
				}
			}
			return sum
		}, nil
	case Ring:
		return func(d *topology.Distances, m Mapping) float64 {
			var sum float64
			p := len(m)
			for r := 0; r < p; r++ {
				sum += float64(d.At(m[r], m[(r+1)%p]))
			}
			return sum
		}, nil
	case BinomialBroadcast:
		return func(d *topology.Distances, m Mapping) float64 {
			var sum float64
			TreeEdges(len(m), func(parent, child, _ int) {
				sum += float64(d.At(m[parent], m[child]))
			})
			return sum
		}, nil
	case BinomialGather:
		return func(d *topology.Distances, m Mapping) float64 {
			var sum float64
			TreeEdges(len(m), func(parent, child, w int) {
				sum += float64(w) * float64(d.At(m[parent], m[child]))
			})
			return sum
		}, nil
	case Alltoall:
		// Complete graph, uniform weights: the sum of distances over every
		// ordered core pair. Invariant under rank permutation, so every
		// mapping is optimal — the heuristic (identity) trivially matches.
		return func(d *topology.Distances, m Mapping) float64 {
			var sum float64
			p := len(m)
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					if i != j {
						sum += float64(d.At(m[i], m[j]))
					}
				}
			}
			return sum
		}, nil
	default:
		return nil, fmt.Errorf("core: no cost function for pattern %v", pat)
	}
}

// MaxOptimalRanks bounds the exhaustive search of Optimal: (n-1)! mappings
// are enumerated, so the bound keeps runtimes sane.
const MaxOptimalRanks = 10

// Optimal finds the minimum-cost mapping by exhaustive search over all
// permutations fixing rank 0 (the same convention the heuristics use). It
// exists to measure heuristic quality at small scales — see the quality
// tests — and refuses more than MaxOptimalRanks ranks.
func Optimal(d *topology.Distances, cost CostFunc) (Mapping, float64, error) {
	p := d.N()
	if p == 0 {
		return nil, 0, fmt.Errorf("core: empty distance matrix")
	}
	if p > MaxOptimalRanks {
		return nil, 0, fmt.Errorf("core: optimal search limited to %d ranks, got %d", MaxOptimalRanks, p)
	}
	cur := Identity(p)
	best := append(Mapping(nil), cur...)
	bestCost := math.Inf(1)
	var perm func(k int)
	perm = func(k int) {
		if k == p {
			if c := cost(d, cur); c < bestCost {
				bestCost = c
				copy(best, cur)
			}
			return
		}
		for i := k; i < p; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			perm(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	perm(1) // rank 0 stays fixed
	return best, bestCost, nil
}
