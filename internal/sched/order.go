package sched

import (
	"fmt"

	"repro/internal/core"
)

// OrderMode selects how the correct order of the allgather output buffer is
// preserved under rank reordering (paper Section V-B). Reordering makes the
// process with new rank j contribute the input vector of its original rank,
// so without countermeasures structured algorithms deliver a permuted
// output vector.
type OrderMode uint8

const (
	// NoOrderFix applies no mechanism. Valid for algorithms that resolve
	// the order from within (ring stores each incoming block at its
	// correct offset) and for identity mappings.
	NoOrderFix OrderMode = iota
	// InitComm adds extra send/receive communications before the
	// collective so that every process starts with the input vector
	// matching its new rank.
	InitComm
	// EndShuffle lets the collective run as usual and shuffles the output
	// buffer elements locally at the end.
	EndShuffle
)

// String implements fmt.Stringer.
func (m OrderMode) String() string {
	switch m {
	case NoOrderFix:
		return "none"
	case InitComm:
		return "initComm"
	case EndShuffle:
		return "endShfl"
	default:
		return fmt.Sprintf("OrderMode(%d)", uint8(m))
	}
}

// NeedsOrderFix reports whether the named algorithm requires an explicit
// order-preservation mechanism when ranks are reordered. Per the paper, only
// recursive doubling and the binomial gather do: the ring and neighbour
// exchange fix offsets inside the algorithm, broadcast has no output vector,
// and the linear patterns place blocks directly. Bruck's shifted local order
// likewise requires a fix. Hierarchical compositions inherit the need from
// their phases: only linear intra phases around a ring among the leaders
// resolve every offset in place. Unknown (synthesized) algorithms are
// conservatively fixed. It is the one rule both the cost model and the
// reordered runtime (collective.Reordered) follow.
func (s *Schedule) NeedsOrderFix() bool {
	switch s.Name {
	case "ring", "neighbor-exchange", "binomial-broadcast", "linear-gather", "linear-broadcast",
		"hierarchical-linear-ring":
		return false
	}
	return true
}

// InitCommSchedule builds a standalone priceable schedule containing only
// the extra initial communications that realign input vectors with new
// ranks under mapping m: one block from new rank inv[r] to new rank r for
// every displaced rank. Used to price the order fix of multi-phase
// (hierarchical) compositions whose phases are priced separately.
func InitCommSchedule(m core.Mapping) *Schedule {
	s := &Schedule{Name: "init-comm", P: len(m), Init: InitSizedOnly}
	if st := initCommStage(m); len(st.Transfers) > 0 {
		s.Stages = []Stage{st}
	}
	return s
}

// initCommStage is the stage of extra initial communications under mapping
// m: for every displaced new rank r, one block from the process holding the
// input r needs (new rank inv[r]) to r, in ascending r.
func initCommStage(m core.Mapping) Stage {
	inv := m.NewRankOf()
	var st Stage
	for r := 0; r < len(m); r++ {
		if src := inv[r]; src != r {
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(src), Dst: int32(r), First: int32(r), N: 1, Mode: Range,
			})
		}
	}
	return st
}

// EndShuffleSchedule builds a standalone priceable schedule containing only
// the end-of-collective local shuffle of a p-block output buffer.
func EndShuffleSchedule(p int) *Schedule {
	return &Schedule{Name: "end-shuffle", P: p, PostCopyBlocks: p, Init: InitSizedOnly}
}

// WithOrderPreservation returns a copy of s augmented with the chosen
// order-preservation mechanism for the given rank mapping. When the
// algorithm does not need a fix, or the mapping is nil/identity, s is
// returned unchanged. The mechanism is attached as priced work:
//
//	InitComm   — a prologue stage moving one input block from the process
//	             holding new rank r's input to new rank r, for every moved
//	             rank (paper V-B.1);
//	EndShuffle — a full local copy of the P-block output buffer on every
//	             rank (paper V-B.2).
func WithOrderPreservation(s *Schedule, m core.Mapping, mode OrderMode) (*Schedule, error) {
	if mode == NoOrderFix || m == nil || m.IsIdentity() || !s.NeedsOrderFix() {
		return s, nil
	}
	if len(m) != s.P {
		return nil, fmt.Errorf("sched: mapping over %d ranks for schedule of %d", len(m), s.P)
	}
	out := *s
	switch mode {
	case InitComm:
		out.Pre = append(append([]Stage(nil), s.Pre...), initCommStage(m))
	case EndShuffle:
		out.PostCopyBlocks = s.PostCopyBlocks + s.P
	default:
		return nil, fmt.Errorf("sched: unknown order mode %d", mode)
	}
	return &out, nil
}
