package sched

import (
	"fmt"

	"repro/internal/patterns"
)

// RecursiveDoubling builds the recursive doubling allgather schedule over p
// ranks (paper Section II, Fig. 1): log2(p) stages; at stage s rank i
// exchanges all data gathered so far (2^s blocks) with rank i XOR 2^s.
// Recursive doubling requires a power-of-two rank count.
func RecursiveDoubling(p int) (*Schedule, error) {
	if p <= 0 || p&(p-1) != 0 {
		return nil, fmt.Errorf("sched: recursive doubling needs a power-of-two rank count, got %d", p)
	}
	s := &Schedule{Name: "recursive-doubling", P: p}
	for mask := 1; mask < p; mask <<= 1 {
		st := Stage{Transfers: make([]Transfer, 0, p)}
		for i := 0; i < p; i++ {
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(i), Dst: int32(i ^ mask), N: int32(mask), Mode: All,
			})
		}
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}

// Ring builds the ring allgather schedule: p-1 repeats of a stage in which
// rank i forwards its most recently received block to rank i+1. The ring
// algorithm needs no order-preservation mechanism under rank reordering —
// each incoming block is stored at its correct output offset inside the
// algorithm (paper Section V-B).
func Ring(p int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: ring needs positive rank count, got %d", p)
	}
	s := &Schedule{Name: "ring", P: p}
	if p == 1 {
		return s, nil
	}
	st := Stage{Repeat: p - 1, Transfers: make([]Transfer, 0, p)}
	for i := 0; i < p; i++ {
		// First records the block sent on the first repeat (rank i's own);
		// later repeats forward the block received in the previous one.
		st.Transfers = append(st.Transfers, Transfer{
			Src: int32(i), Dst: int32(RingNext(i, p)), First: int32(i), N: 1, Mode: Latest,
		})
	}
	s.Stages = append(s.Stages, st)
	return s, nil
}

// Bruck builds the Bruck allgather schedule, which supports any rank count
// in ceil(log2 p) stages: at stage s, rank i sends its first min(2^s, p-2^s)
// blocks (in its rotated local order, i.e. blocks i, i+1, ... mod p) to rank
// (i - 2^s) mod p. A final local rotation restores block order, accounted as
// PostCopyBlocks. The paper lists Bruck support as future work; the ring
// heuristic RMH applies to it directly because Bruck's neighbour structure
// is a ring of strides.
func Bruck(p int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: bruck needs positive rank count, got %d", p)
	}
	s := &Schedule{Name: "bruck", P: p}
	if p == 1 {
		return s, nil
	}
	for pow := 1; pow < p; pow <<= 1 {
		st := Stage{Transfers: make([]Transfer, 0, p)}
		for i := 0; i < p; i++ {
			dst, _, cnt := BruckStep(i, pow, p)
			st.Transfers = append(st.Transfers, Transfer{
				Src:   int32(i),
				Dst:   int32(dst),
				First: int32(i),
				N:     int32(cnt),
				Mode:  Range,
			})
		}
		s.Stages = append(s.Stages, st)
	}
	s.PostCopyBlocks = p // final rotation into rank order
	return s, nil
}

// BinomialGather builds the binomial-tree gather schedule to root 0 over
// ranks 0..p-1: log2(p) stages with message sizes doubling toward the root.
// Children with larger subtrees merge later, so stage s moves the subtree
// edges whose child depth is... operationally: at stage s, every rank whose
// low s bits are zero and whose bit s is set sends everything it has
// gathered to rank (i - 2^s).
func BinomialGather(p int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: gather needs positive rank count, got %d", p)
	}
	s := &Schedule{Name: "binomial-gather", P: p}
	for pow := 1; pow < p; pow <<= 1 {
		var st Stage
		for i := pow; i < p; i += pow << 1 {
			// Rank i sends its gathered subtree [i, i+size) to i-pow.
			size := pow
			if i+size > p {
				size = p - i
			}
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(i), Dst: int32(i - pow), First: int32(i), N: int32(size), Mode: All,
			})
		}
		if len(st.Transfers) > 0 {
			s.Stages = append(s.Stages, st)
		}
	}
	return s, nil
}

// BinomialBroadcast builds the binomial-tree broadcast schedule from root 0:
// log2(p) stages with a fixed message size of blocks blocks per transfer.
// The tree is the same clear-lowest-bit binomial tree that MPI libraries and
// the BBMH heuristic use: stages descend from the widest stride, so at stage s every
// rank that already holds the message and is aligned to 2^(s+1) forwards it
// to its partner 2^s away. The number of concurrent transfers doubles each
// stage, ending with p/2 pairs — the contention the BBMH traversal order
// targets (paper Section V-A3).
func BinomialBroadcast(p, blocks int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: broadcast needs positive rank count, got %d", p)
	}
	if blocks <= 0 {
		return nil, fmt.Errorf("sched: broadcast needs positive block count, got %d", blocks)
	}
	s := &Schedule{Name: "binomial-broadcast", P: p, Blocks: blocks, Init: InitRoot}
	top := 1
	for top<<1 < p {
		top <<= 1
	}
	for pow := top; pow >= 1 && p > 1; pow >>= 1 {
		var st Stage
		for i := 0; i+pow < p; i += pow << 1 {
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(i), Dst: int32(i + pow), N: int32(blocks), Mode: All,
			})
		}
		if len(st.Transfers) > 0 {
			s.Stages = append(s.Stages, st)
		}
	}
	return s, nil
}

// LinearGather builds the direct gather: every rank sends its block straight
// to root 0 in a single stage. The root's fan-in serialises in the cost
// model through endpoint contention.
func LinearGather(p int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: gather needs positive rank count, got %d", p)
	}
	s := &Schedule{Name: "linear-gather", P: p}
	var st Stage
	for i := 1; i < p; i++ {
		st.Transfers = append(st.Transfers, Transfer{
			Src: int32(i), Dst: 0, First: int32(i), N: 1, Mode: Range,
		})
	}
	if len(st.Transfers) > 0 {
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}

// LinearBroadcast builds the direct broadcast: root 0 sends the whole
// message (blocks blocks) to every other rank in a single stage.
func LinearBroadcast(p, blocks int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: broadcast needs positive rank count, got %d", p)
	}
	if blocks <= 0 {
		return nil, fmt.Errorf("sched: broadcast needs positive block count, got %d", blocks)
	}
	s := &Schedule{Name: "linear-broadcast", P: p, Blocks: blocks, Init: InitRoot}
	var st Stage
	for i := 1; i < p; i++ {
		st.Transfers = append(st.Transfers, Transfer{
			Src: 0, Dst: int32(i), N: int32(blocks), Mode: All,
		})
	}
	if len(st.Transfers) > 0 {
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}

// NeighborExchange builds the neighbour-exchange allgather schedule over an
// even number of ranks: p/2 stages in which adjacent pairs — (0,1),(2,3),…
// on odd stages, (1,2),(3,4),…,(p-1,0) on even stages — swap the blocks
// they acquired most recently (two per stage after the first). The
// algorithm's pattern is the ring's neighbour structure, so RMH is its
// fine-tuned heuristic, and like the ring it needs no order-preservation
// mechanism: every block travels with its identity.
//
// A single rank has nobody to exchange with: p = 1 is the zero-stage
// schedule, named for the algorithm so metrics and trace spans agree with
// what the caller asked for.
func NeighborExchange(p int) (*Schedule, error) {
	if p <= 0 || p%2 != 0 && p != 1 {
		return nil, fmt.Errorf("sched: neighbor exchange needs one rank or a positive even rank count, got %d", p)
	}
	s := &Schedule{Name: "neighbor-exchange", P: p}
	// Send ranges are advanced incrementally — at step s each rank forwards
	// what its previous partner sent at s-1 — so the build is O(p) per stage.
	first := make([]int32, p)
	n := make([]int32, p)
	next := make([]int32, p)
	for step := 1; step <= p/2; step++ {
		switch step {
		case 1:
			for i := 0; i < p; i++ {
				first[i], n[i] = int32(i), 1
			}
		case 2:
			for i := 0; i < p; i++ {
				first[i], n[i] = int32(i&^1), 2
			}
		default:
			for i := 0; i < p; i++ {
				next[i] = first[NeighborPartner(i, step-1, p)]
			}
			first, next = next, first
		}
		st := Stage{Transfers: make([]Transfer, 0, p)}
		for i := 0; i < p; i++ {
			st.Transfers = append(st.Transfers, Transfer{
				Src:   int32(i),
				Dst:   int32(NeighborPartner(i, step, p)),
				First: first[i],
				N:     n[i],
				Mode:  Range,
			})
		}
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}

// ReduceScatterAllgather builds the schedule of Rabenseifner's allreduce
// over p ranks (power of two): log2(p) recursive-halving stages with
// message sizes halving from p/2 chunks, then log2(p) recursive-doubling
// stages with sizes doubling back up. Block units are the p reduced chunks;
// every rank initially holds all of them (its full input vector), so the
// Range sends always carry held blocks and the schedule both validates and
// replays cleanly.
func ReduceScatterAllgather(p int) (*Schedule, error) {
	if p <= 0 || p&(p-1) != 0 {
		return nil, fmt.Errorf("sched: reduce-scatter/allgather needs a power-of-two rank count, got %d", p)
	}
	s := &Schedule{Name: "reduce-scatter-allgather", P: p, Init: InitAll}
	// Recursive halving: at mask, rank i sends the half of its current
	// range belonging to partner i^mask. Current range of rank i before
	// stage mask: the chunks whose indices agree with i on all bits above
	// mask; the half sent is the one matching the partner's mask bit.
	// Halving stages combine with the reduction operator (Reduce); the
	// doubling stages below overwrite with fully reduced chunks.
	for mask := p / 2; mask >= 1; mask >>= 1 {
		st := Stage{Reduce: true}
		for i := 0; i < p; i++ {
			partner := i ^ mask
			// Sent range: chunks [start, start+mask) where start has i's
			// bits above mask and partner's mask bit.
			start := i &^ (2*mask - 1)
			if partner&mask != 0 {
				start |= mask
			}
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(i), Dst: int32(partner), First: int32(start), N: int32(mask), Mode: Range,
			})
		}
		if len(st.Transfers) > 0 {
			s.Stages = append(s.Stages, st)
		}
	}
	// Recursive doubling allgather of the reduced chunks.
	for mask := 1; mask < p; mask <<= 1 {
		var st Stage
		for i := 0; i < p; i++ {
			start := i &^ (mask - 1)
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(i), Dst: int32(i ^ mask), First: int32(start), N: int32(mask), Mode: Range,
			})
		}
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}

// assertTreeConsistency is a development aid verifying that BinomialGather's
// stage construction agrees with the canonical binomial tree enumeration of
// package patterns. It is exercised by tests.
func assertTreeConsistency(p int) error {
	want := map[[2]int]int{}
	patterns.TreeEdges(p, func(parent, child, size int) {
		want[[2]int{child, parent}] = size
	})
	s, err := BinomialGather(p)
	if err != nil {
		return err
	}
	got := map[[2]int]int{}
	for _, st := range s.Stages {
		for _, tr := range st.Transfers {
			got[[2]int{int(tr.Src), int(tr.Dst)}] = int(tr.N)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("sched: gather has %d edges, tree has %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("sched: gather edge %v carries %d blocks, tree says %d", k, got[k], v)
		}
	}
	return nil
}
