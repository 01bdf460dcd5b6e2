package core

import (
	"fmt"
	"hash/fnv"
	"io"
)

// Pattern names the collective communication patterns for which fine-tuned
// mapping heuristics exist (paper Section V-A). The pattern is derived from
// the algorithm the MPI library will use, so rank reordering can "jump right
// to the mapping step" without building a process topology graph.
type Pattern uint8

const (
	// RecursiveDoubling is the pattern of the recursive doubling allgather:
	// at stage s, rank i exchanges with rank i XOR 2^s, with message volume
	// doubling every stage.
	RecursiveDoubling Pattern = iota
	// Ring is the pattern of the ring allgather: rank i receives from i-1
	// and sends to i+1 at every stage.
	Ring
	// BinomialBroadcast is the binomial-tree broadcast pattern with a fixed
	// message size across stages; also used by MPI_Bcast.
	BinomialBroadcast
	// BinomialGather is the binomial-tree gather pattern with message sizes
	// growing toward the root; also used by MPI_Gather.
	BinomialGather
	// Alltoall is the complete-exchange pattern of MPI_Alltoall: every rank
	// exchanges a distinct block with every other rank. It has no fine-tuned
	// mapping heuristic (the pattern graph is the complete graph, so every
	// mapping prices identically at the graph level); the win comes from the
	// schedule side — topology-native schedules selected per fingerprint.
	Alltoall
)

// Patterns lists every supported pattern.
var Patterns = []Pattern{RecursiveDoubling, Ring, BinomialBroadcast, BinomialGather, Alltoall}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case RecursiveDoubling:
		return "recursive-doubling"
	case Ring:
		return "ring"
	case BinomialBroadcast:
		return "binomial-broadcast"
	case BinomialGather:
		return "binomial-gather"
	case Alltoall:
		return "alltoall"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Heuristic returns the fine-tuned mapping heuristic for the pattern.
func (p Pattern) Heuristic() Heuristic {
	switch p {
	case RecursiveDoubling:
		return RDMH
	case Ring:
		return RMH
	case BinomialBroadcast:
		return BBMH
	case BinomialGather:
		return BGMH
	case Alltoall:
		return ATAMH
	default:
		return nil
	}
}

// OracleHeuristic returns the kernel-agnostic variant of the pattern's
// fine-tuned mapping heuristic, usable with the compact topology.Hierarchy
// oracle as well as the dense matrix.
func (p Pattern) OracleHeuristic() OracleHeuristic {
	switch p {
	case RecursiveDoubling:
		return RDMHOracle
	case Ring:
		return RMHOracle
	case BinomialBroadcast:
		return BBMHOracle
	case BinomialGather:
		return BGMHOracle
	case Alltoall:
		return ATAMHOracle
	default:
		return nil
	}
}

// ParsePattern returns the pattern whose String() form is name.
func ParsePattern(name string) (Pattern, error) {
	for _, p := range Patterns {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown pattern %q", name)
}

// Fingerprint returns a stable content hash of the pattern identity, for use
// in content-addressed cache keys. The value is a pure function of the
// pattern's canonical name, so it survives renumbering of the Pattern
// constants; changing it breaks persisted caches and is guarded by a
// regression test.
func (p Pattern) Fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, "core.Pattern\x00")
	io.WriteString(h, p.String())
	return h.Sum64()
}
