package collective

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// HierarchicalReorderedAllgather runs the paper's complete hierarchical
// deployment on the live runtime: one compiled program whose phases each
// follow their own topology-aware rank ordering —
//
//	phase 1 gather    in BGMH order within every node,
//	phase 2 allgather in RDMH/RMH order among the node leaders,
//	phase 3 broadcast in BBMH order within every node,
//
// with intra-node mappings computed from the node's core distances and the
// leader mapping from inter-node distances (both derived from cluster and
// the worldRank→core layout). The mappings fix rank 0, so every node keeps
// its leader across phases. Linear intra phases expose no pattern and stay
// in rank order, as in the paper; recursive doubling among a
// non-power-of-two number of leaders runs as the ring.
//
// The orderings and the program are computed once per (communicator members,
// cluster, layout, cfg) — the paper builds its reordered communicators once,
// at communicator-creation time — and shared by all ranks and later calls.
//
// The per-communicator info key mpi.InfoTopoReorder (paper Section IV)
// disables the reordering: with "false" set, the call degrades to the plain
// HierarchicalAllgather.
func HierarchicalReorderedAllgather(c *mpi.Comm, send, recv []byte, cluster *topology.Cluster, layout []int, cfg sched.HierarchicalConfig) error {
	if _, err := checkAllgatherArgs(c, send, recv); err != nil {
		return err
	}
	cores := c.Members()
	for r, w := range cores {
		if w >= len(layout) {
			return fmt.Errorf("collective: layout covers %d world ranks, rank %d is world rank %d", len(layout), r, w)
		}
		cores[r] = layout[w]
	}
	if !c.ReorderEnabled() {
		return HierarchicalAllgather(c, send, recv, func(w int) int { return cluster.NodeOf(layout[w]) }, cfg)
	}
	prog, err := hierPlan(cores, cluster, cfg, func() (*sched.Schedule, error) {
		return reorderedHierarchical(cluster, cores, cfg)
	})
	if err != nil {
		return err
	}
	return runHierarchical(c, "hierarchical-reordered", prog, send, recv)
}

// reorderedHierarchical builds the hierarchical schedule over ranks placed on
// cores, with every phase's view of the node groups permuted by that phase's
// mapping heuristic.
func reorderedHierarchical(cluster *topology.Cluster, cores []int, cfg sched.HierarchicalConfig) (*sched.Schedule, error) {
	groups := sched.Groups(cores, cluster.NodeOf)
	distances := func(ranks []int) (*topology.Distances, error) {
		cs := make([]int, len(ranks))
		for i, r := range ranks {
			cs[i] = cores[r]
		}
		return topology.NewDistances(cluster, cs)
	}

	gather, bcast := groups, groups
	if cfg.Intra == sched.NonLinear {
		gather, bcast = make([][]int, len(groups)), make([][]int, len(groups))
		for gi, g := range groups {
			gather[gi], bcast[gi] = g, g
			if len(g) == 1 {
				continue
			}
			d, err := distances(g)
			if err != nil {
				return nil, err
			}
			gm, err := core.BGMH(d, nil)
			if err != nil {
				return nil, err
			}
			bm, err := core.BBMH(d, nil)
			if err != nil {
				return nil, err
			}
			gather[gi], bcast[gi] = applyMapping(g, gm), applyMapping(g, bm)
		}
	}

	inter := groups
	if n := len(groups); n > 1 {
		leaders := make([]int, n)
		for gi, g := range groups {
			leaders[gi] = g[0]
		}
		d, err := distances(leaders)
		if err != nil {
			return nil, err
		}
		heuristic := core.RDMH
		if cfg.Inter != sched.InterRecursiveDoubling || n&(n-1) != 0 {
			heuristic, cfg.Inter = core.RMH, sched.InterRing
		}
		lm, err := heuristic(d, nil)
		if err != nil {
			return nil, err
		}
		inter = applyMapping(groups, lm)
	}
	return sched.HierarchicalPhased(gather, inter, bcast, cfg)
}

// applyMapping reorders xs by m: the element at old position m[j] acts at
// new position j.
func applyMapping[T any](xs []T, m core.Mapping) []T {
	out := make([]T, len(xs))
	for j, old := range m {
		out[j] = xs[old]
	}
	return out
}
