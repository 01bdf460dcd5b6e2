package sched

import (
	"fmt"
	"slices"
)

// IntraKind selects the intra-node phases of the hierarchical allgather
// (paper Section II): either direct linear transfers to/from the node
// leader, or binomial-tree gather and broadcast.
type IntraKind uint8

const (
	// Linear uses the direct pattern: all ranks send to (receive from) the
	// leader in one stage. There is no intra-node pattern for rank
	// reordering to optimise in this mode.
	Linear IntraKind = iota
	// NonLinear uses binomial-tree gather and broadcast, the patterns
	// targeted by BGMH and BBMH.
	NonLinear
)

// String implements fmt.Stringer.
func (k IntraKind) String() string {
	if k == Linear {
		return "linear"
	}
	return "non-linear"
}

// InterKind selects the leader-phase allgather algorithm.
type InterKind uint8

const (
	// InterRecursiveDoubling runs recursive doubling among node leaders.
	InterRecursiveDoubling InterKind = iota
	// InterRing runs the ring algorithm among node leaders.
	InterRing
)

// String implements fmt.Stringer.
func (k InterKind) String() string {
	if k == InterRecursiveDoubling {
		return "recursive-doubling"
	}
	return "ring"
}

// HierarchicalConfig describes a hierarchical allgather composition.
type HierarchicalConfig struct {
	Intra IntraKind
	Inter InterKind
}

// Hierarchical builds the three-phase hierarchical allgather schedule:
//
//	phase 1 — gather each node's blocks into its leader (group[0])
//	phase 2 — allgather of the aggregated blocks among the leaders
//	phase 3 — broadcast of the full result from each leader to its node
//
// groups lists, per node, the ranks residing there, leader first; every rank
// 0..p-1 must appear exactly once. All groups must have equal size (the
// paper's dedicated, fully populated allocations) and, when the ring
// inter-node algorithm is selected, each group must be a contiguous rank
// range so that forwarded node-block sets stay contiguous — which is exactly
// the block-layout restriction the paper notes ("hierarchical allgather is
// not supported with cyclic mapping").
func Hierarchical(groups [][]int, cfg HierarchicalConfig) (*Schedule, error) {
	return HierarchicalPhased(groups, groups, groups, cfg)
}

// HierarchicalPhased is Hierarchical with one view of the node partition per
// phase — what per-phase rank reordering (BGMH for the gather, RDMH/RMH for
// the leaders, BBMH for the broadcast) amounts to once the three phases run
// as a single program: gather and bcast order every node's members for their
// tree (leader first), inter orders the nodes for the leader exchange. The
// three views must describe one partition with the same leaders.
func HierarchicalPhased(gather, inter, bcast [][]int, cfg HierarchicalConfig) (*Schedule, error) {
	p, err := checkGroups(gather)
	if err != nil {
		return nil, err
	}
	leaderOf := make([]int, p)
	for gi, g := range gather {
		if len(g) != len(gather[0]) {
			return nil, fmt.Errorf("sched: hierarchical groups must be uniform: group 0 has %d ranks, group %d has %d",
				len(gather[0]), gi, len(g))
		}
		for _, r := range g {
			leaderOf[r] = g[0]
		}
	}
	for _, view := range [][][]int{inter, bcast} {
		if vp, err := checkGroups(view); err != nil {
			return nil, err
		} else if vp != p || len(view) != len(gather) {
			return nil, fmt.Errorf("sched: hierarchical phase views cover %d ranks in %d groups, want %d in %d",
				vp, len(view), p, len(gather))
		}
		for gi, g := range view {
			for _, r := range g {
				if leaderOf[r] != g[0] {
					return nil, fmt.Errorf("sched: hierarchical phase views disagree: rank %d has leader %d in one view, group %d led by %d in another",
						r, leaderOf[r], gi, g[0])
				}
			}
		}
	}
	// Phase 1: intra-node gather into the leaders. Phase 2: inter-leader
	// allgather over aggregated node blocks. Phase 3: intra-node broadcast
	// of the complete result.
	gatherStages, err := embed(gather, true, intraStages(cfg.Intra, true, p))
	if err != nil {
		return nil, err
	}
	interStages, err := interPhase(inter, cfg.Inter)
	if err != nil {
		return nil, err
	}
	bcastStages, err := embed(bcast, true, intraStages(cfg.Intra, false, p))
	if err != nil {
		return nil, err
	}
	return &Schedule{Name: fmt.Sprintf("hierarchical-%s-%s", cfg.Intra, cfg.Inter), P: p,
		Stages: slices.Concat(gatherStages, interStages, bcastStages)}, nil
}

// HierarchicalAllreduce builds the hierarchical allreduce over node groups
// (leader first) as one schedule of three phases: a binomial reduce into
// every leader, leader — an allreduce schedule over len(groups) ranks —
// relabelled onto the leaders, and a binomial broadcast of the result back
// into every node. Group populations may differ: reductions combine rather
// than concatenate, so every message carries the whole leader block space.
func HierarchicalAllreduce(groups [][]int, leader *Schedule) (*Schedule, error) {
	p, err := checkGroups(groups)
	if err != nil {
		return nil, err
	}
	if leader.P != len(groups) || leader.Init != InitAll || len(leader.Pre) > 0 {
		return nil, fmt.Errorf("sched: hierarchical allreduce over %d groups needs a %d-rank InitAll leader schedule without prologue, got %q over %d ranks",
			len(groups), len(groups), leader.Name, leader.P)
	}
	blocks := leader.NumBlocks()
	reduce, err := embed(groups, false, func(n int) ([]Stage, error) { return binomialReduce(n, blocks) })
	if err != nil {
		return nil, err
	}
	inter, _ := embed([][]int{leadersOf(groups)}, false, func(int) ([]Stage, error) { return leader.Stages, nil }) // cannot fail: given stages, blocks kept
	bcast, err := embed(groups, false, intraStages(NonLinear, false, blocks))
	if err != nil {
		return nil, err
	}
	return &Schedule{Name: "hierarchical-" + leader.Name, P: p, Blocks: blocks, Init: InitAll,
		Stages: slices.Concat(reduce, inter, bcast)}, nil
}

// leadersOf returns every group's leader, group[0], in group order.
func leadersOf(groups [][]int) []int {
	out := make([]int, len(groups))
	for gi, g := range groups {
		out[gi] = g[0]
	}
	return out
}

// checkGroups validates one view of the node partition — non-empty groups
// covering every rank 0..p-1 exactly once — and returns p.
func checkGroups(groups [][]int) (int, error) {
	if len(groups) == 0 {
		return 0, fmt.Errorf("sched: hierarchical needs at least one group")
	}
	p := 0
	for gi, g := range groups {
		if len(g) == 0 {
			return 0, fmt.Errorf("sched: hierarchical group %d is empty", gi)
		}
		p += len(g)
	}
	seen := make([]bool, p)
	for gi, g := range groups {
		for _, r := range g {
			if r < 0 || r >= p {
				return 0, fmt.Errorf("sched: hierarchical group %d contains rank %d outside 0..%d", gi, r, p-1)
			}
			if seen[r] {
				return 0, fmt.Errorf("sched: rank %d appears in more than one group", r)
			}
			seen[r] = true
		}
	}
	return p, nil
}

// IntraPhase builds one intra phase of the hierarchical allgather as a
// standalone pricing-only schedule: per-node gathers into the leaders
// (gather=true, phase 1) or per-node broadcasts of the complete p-block
// result from them (phase 3), merged stage-by-stage across nodes. Rank space
// and block space are global. Used to price hierarchical phases separately
// when the phases run under different rank reorderings.
func IntraPhase(groups [][]int, kind IntraKind, gather bool) (*Schedule, error) {
	p, err := checkGroups(groups)
	if err != nil {
		return nil, err
	}
	stages, err := embed(groups, true, intraStages(kind, gather, p))
	if err != nil {
		return nil, err
	}
	name := "intra-broadcast-"
	if gather {
		name = "intra-gather-"
	}
	return &Schedule{Name: name + kind.String(), P: p, Stages: stages, Init: InitSizedOnly}, nil
}

// intraStages returns the per-group builder of an intra phase: the gather
// into local rank 0 (gather=true), or the broadcast of a blocks-block value
// from it.
func intraStages(kind IntraKind, gather bool, blocks int) func(n int) ([]Stage, error) {
	return func(n int) ([]Stage, error) {
		var local *Schedule
		var err error
		switch {
		case kind == Linear && gather:
			local, err = LinearGather(n)
		case kind == Linear:
			local, err = LinearBroadcast(n, blocks)
		case gather:
			local, err = BinomialGather(n)
		default:
			local, err = BinomialBroadcast(n, blocks)
		}
		if err != nil {
			return nil, err
		}
		return local.Stages, nil
	}
}

// embed is the one per-group embedding of the hierarchical compositions: it
// relabels local's stages for every group onto the group's ranks (local rank
// i is group[i]) and merges the groups' stages index by index, so all groups
// proceed concurrently. Single-rank groups have nothing to do. With
// rankBlocks the local block space is the local rank space (a gather's
// per-rank blocks), so Range transfers are relabelled too; otherwise blocks
// keep their indices.
func embed(groups [][]int, rankBlocks bool, local func(n int) ([]Stage, error)) ([]Stage, error) {
	var merged []Stage
	for _, g := range groups {
		if len(g) == 1 {
			continue
		}
		stages, err := local(len(g))
		if err != nil {
			return nil, err
		}
		for si, st := range stages {
			if si == len(merged) {
				merged = append(merged, Stage{Repeat: st.Repeat, Reduce: st.Reduce})
			}
			out := &merged[si]
			for _, tr := range st.Transfers {
				tr.Src, tr.Dst = int32(g[tr.Src]), int32(g[tr.Dst])
				if rankBlocks && tr.Mode == Range {
					if tr.N != 1 {
						return nil, fmt.Errorf("sched: internal: multi-block range in intra phase")
					}
					tr.First = int32(g[tr.First])
				}
				out.Transfers = append(out.Transfers, tr)
			}
		}
	}
	return merged, nil
}

// interPhase builds the leader allgather over node-aggregated blocks.
func interPhase(groups [][]int, kind InterKind) ([]Stage, error) {
	leaders, g := leadersOf(groups), len(groups)
	if g == 1 {
		return nil, nil
	}
	k := len(groups[0])
	switch kind {
	case InterRecursiveDoubling:
		if g&(g-1) != 0 {
			return nil, fmt.Errorf("sched: inter-leader recursive doubling needs a power-of-two node count, got %d", g)
		}
		var stages []Stage
		for mask := 1; mask < g; mask <<= 1 {
			var st Stage
			for i := 0; i < g; i++ {
				st.Transfers = append(st.Transfers, Transfer{
					Src: int32(leaders[i]), Dst: int32(leaders[i^mask]),
					N: int32(mask * k), Mode: All,
				})
			}
			stages = append(stages, st)
		}
		return stages, nil
	case InterRing:
		// Ring forwarding of whole node-block sets: leader i forwards, at
		// repeat t, the blocks of node (i - t) mod g. The forwarded sets
		// stay well-defined only when each group is a contiguous rank run —
		// the block-layout restriction the paper notes for hierarchical
		// allgather.
		lo := make([]int, len(groups))
		for gi, grp := range groups {
			lo[gi] = slices.Min(grp)
			for _, r := range grp {
				if r >= lo[gi]+len(grp) {
					return nil, fmt.Errorf("sched: inter-leader ring requires contiguous rank groups (block layouts); group %d is not contiguous", gi)
				}
			}
		}
		var st Stage
		for i := 0; i < g; i++ {
			// First repeat: leader i forwards its own node's contiguous
			// block range [lo, lo+k); later repeats forward what the
			// previous repeat delivered.
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(leaders[i]), Dst: int32(leaders[(i+1)%g]),
				First: int32(lo[i]), N: int32(k), Mode: Latest,
			})
		}
		return []Stage{{Transfers: st.Transfers, Repeat: g - 1}}, nil
	default:
		return nil, fmt.Errorf("sched: unknown inter kind %d", kind)
	}
}

// Groups derives the node groups (leader-first, in rank order) from a
// process layout: groups[i] lists the ranks whose cores share the i-th
// distinct node encountered in rank order. nodeOf maps a core to its node.
func Groups(layout []int, nodeOf func(core int) int) [][]int {
	index := map[int]int{}
	var groups [][]int
	for r, c := range layout {
		n := nodeOf(c)
		gi, ok := index[n]
		if !ok {
			gi = len(groups)
			index[n] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], r)
	}
	return groups
}
