package sched

import "fmt"

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
	for _, g := range gather {
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
	s := &Schedule{Name: fmt.Sprintf("hierarchical-%s-%s", cfg.Intra, cfg.Inter), P: p}

	// Phase 1: intra-node gather into the leaders; stages of all groups
	// proceed concurrently and are merged stage-by-stage.
	gatherStages, err := intraPhase(gather, cfg.Intra, true)
	if err != nil {
		return nil, err
	}
	s.Stages = append(s.Stages, gatherStages...)

	// Phase 2: inter-leader allgather over aggregated node blocks.
	leaders := make([]int, len(inter))
	for gi, g := range inter {
		leaders[gi] = g[0]
	}
	interStages, err := interPhase(inter, leaders, cfg.Inter)
	if err != nil {
		return nil, err
	}
	s.Stages = append(s.Stages, interStages...)

	// Phase 3: intra-node broadcast of the complete result.
	bcastStages, err := intraPhase(bcast, cfg.Intra, false)
	if err != nil {
		return nil, err
	}
	s.Stages = append(s.Stages, bcastStages...)
	return s, nil
}

// checkGroups validates one view of the node partition — non-empty uniform
// groups covering every rank 0..p-1 exactly once — and returns p.
func checkGroups(groups [][]int) (int, error) {
	if len(groups) == 0 {
		return 0, fmt.Errorf("sched: hierarchical needs at least one group")
	}
	k := len(groups[0])
	p := 0
	for gi, g := range groups {
		if len(g) == 0 {
			return 0, fmt.Errorf("sched: hierarchical group %d is empty", gi)
		}
		if len(g) != k {
			return 0, fmt.Errorf("sched: hierarchical groups must be uniform: group 0 has %d ranks, group %d has %d",
				k, gi, len(g))
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

// IntraGather builds the standalone phase-1 schedule: per-node gathers into
// the leaders, merged stage-by-stage across nodes. Rank space and block
// space are global. Used to price hierarchical phases separately when the
// phases run under different rank reorderings.
func IntraGather(groups [][]int, kind IntraKind) (*Schedule, error) {
	p := 0
	for _, g := range groups {
		p += len(g)
	}
	if p == 0 {
		return nil, fmt.Errorf("sched: empty groups")
	}
	stages, err := intraPhase(groups, kind, true)
	if err != nil {
		return nil, err
	}
	return &Schedule{Name: fmt.Sprintf("intra-gather-%s", kind), P: p, Stages: stages, Init: InitSizedOnly}, nil
}

// IntraBroadcast builds the standalone phase-3 schedule: per-node broadcasts
// of the complete p-block result from the leaders.
func IntraBroadcast(groups [][]int, kind IntraKind) (*Schedule, error) {
	p := 0
	for _, g := range groups {
		p += len(g)
	}
	if p == 0 {
		return nil, fmt.Errorf("sched: empty groups")
	}
	stages, err := intraPhase(groups, kind, false)
	if err != nil {
		return nil, err
	}
	return &Schedule{Name: fmt.Sprintf("intra-broadcast-%s", kind), P: p, Stages: stages, Init: InitSizedOnly}, nil
}

// intraPhase builds the merged per-node gather (gather=true) or broadcast
// stages. In the broadcast phase every transfer carries the full p blocks.
func intraPhase(groups [][]int, kind IntraKind, gather bool) ([]Stage, error) {
	p := 0
	for _, g := range groups {
		p += len(g)
	}
	var merged []Stage
	ensure := func(i int) *Stage {
		for len(merged) <= i {
			merged = append(merged, Stage{})
		}
		return &merged[i]
	}
	for _, g := range groups {
		var local *Schedule
		var err error
		n := len(g)
		if n == 1 {
			continue
		}
		switch {
		case kind == Linear && gather:
			local, err = LinearGather(n)
		case kind == Linear && !gather:
			local, err = LinearBroadcast(n, p)
		case gather:
			local, err = BinomialGather(n)
		default:
			local, err = BinomialBroadcast(n, p)
		}
		if err != nil {
			return nil, err
		}
		for si, st := range local.Stages {
			out := ensure(si)
			for _, tr := range st.Transfers {
				g0 := tr
				g0.Src, g0.Dst = int32(g[tr.Src]), int32(g[tr.Dst])
				if tr.Mode == Range {
					// Local block index -> global rank block.
					g0.First = int32(g[tr.First])
					if g0.N != 1 {
						return nil, fmt.Errorf("sched: internal: multi-block range in intra phase")
					}
				}
				out.Transfers = append(out.Transfers, g0)
			}
		}
	}
	return merged, nil
}

// interPhase builds the leader allgather over node-aggregated blocks.
func interPhase(groups [][]int, leaders []int, kind InterKind) ([]Stage, error) {
	g := len(leaders)
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
			lo[gi] = grp[0]
			for _, r := range grp {
				if r < lo[gi] {
					lo[gi] = r
				}
			}
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
