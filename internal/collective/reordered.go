package collective

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// Algorithm names a flat allgather algorithm.
type Algorithm uint8

const (
	// AlgAuto leaves the choice to selectProgram: the world's synth table,
	// else the family registry's MVAPICH-style size rule.
	AlgAuto Algorithm = iota
	// AlgRecursiveDoubling forces recursive doubling.
	AlgRecursiveDoubling
	// AlgRing forces the ring algorithm.
	AlgRing
	// AlgBruck forces the Bruck algorithm.
	AlgBruck
	// AlgNeighborExchange forces the neighbour-exchange algorithm (even
	// communicator sizes). Never chosen by AlgAuto; request it explicitly.
	AlgNeighborExchange
)

// String implements fmt.Stringer. For a forcing value it is exactly the
// registered builder name in the allgather family.
func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgRecursiveDoubling:
		return "recursive-doubling"
	case AlgRing:
		return "ring"
	case AlgBruck:
		return "bruck"
	case AlgNeighborExchange:
		return "neighbor-exchange"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// RingThresholdBytes and RabenseifnerThresholdBytes re-export the family
// registry's switch points (sched/family.go, where the rules live) for the
// figure drivers and commands that label their output with them.
const (
	RingThresholdBytes         = sched.RingThresholdBytes
	RabenseifnerThresholdBytes = sched.RabenseifnerThresholdBytes
)

// Allgather runs a flat allgather on c with the standard output contract
// (block r at offset r). alg forces a builder; under AlgAuto the world's
// synth table, else the registry's size rule, selects it (selectProgram).
func Allgather(c *mpi.Comm, send, recv []byte, alg Algorithm) error {
	blk, err := checkAllgatherArgs(c, send, recv)
	if err != nil {
		return err
	}
	prog, err := selectProgram(c, sched.FamilyAllgather, c.Size(), blk, alg)
	if err != nil {
		return err
	}
	return tracedExecute(c, prog.Name, "allgather", prog.Name, func() error {
		return ExecuteAllgather(c, prog, send, recv, nil)
	})
}

// Reordered couples a communicator with its reordered copy — the run-time
// artefact of paper Section IV. Construct it once per communicator and
// pattern with NewReordered; subsequent Allgather calls go through the
// reordered copy with output order preserved.
type Reordered struct {
	re      *mpi.Comm
	mapping core.Mapping
	mode    sched.OrderMode
}

// NewReordered collectively creates the reordered communicator from mapping
// m (all ranks must pass equal values) and the order-preservation mode used
// by order-sensitive algorithms.
func NewReordered(c *mpi.Comm, m core.Mapping, mode sched.OrderMode) (*Reordered, error) {
	re, err := c.Reorder(m)
	if err != nil {
		return nil, err
	}
	return &Reordered{re: re, mapping: m, mode: mode}, nil
}

// Comm returns the reordered communicator.
func (r *Reordered) Comm() *mpi.Comm { return r.re }

// Mapping returns the rank mapping (new rank -> old rank).
func (r *Reordered) Mapping() core.Mapping { return r.mapping }

// Allgather performs the topology-aware allgather: the collective runs over
// the reordered communicator while send/recv follow the *original* rank
// contract — recv holds block i of original rank i, for every i. It runs
// what simnet prices: the selected program under sched.WithOrderPreservation
// (paper Section V-B). Programs that need no fix (Schedule.NeedsOrderFix),
// and every program under NoOrderFix, store each block at its original
// offset through the mapping Placement; under InitComm the order-fixed
// program's Pre stage hands new rank j original rank j's input; under
// EndShuffle the output buffer is permuted locally afterwards.
func (r *Reordered) Allgather(send, recv []byte, alg Algorithm) error {
	blk, err := checkAllgatherArgs(r.re, send, recv)
	if err != nil {
		return err
	}
	prog, err := selectProgram(r.re, sched.FamilyAllgather, r.re.Size(), blk, alg)
	if err != nil {
		return err
	}
	mode := r.mode
	if !prog.Schedule().NeedsOrderFix() {
		mode = sched.NoOrderFix
	}
	if mode == sched.InitComm {
		base := prog
		prog, err = planOf(r.mapping, hierPlanKey{base: base, mode: mode}, func() (*sched.Schedule, error) {
			return sched.WithOrderPreservation(base.Schedule(), r.mapping, mode)
		})
		if err != nil {
			return err
		}
	}
	return tracedExecute(r.re, "reordered", "allgather", prog.Name, func() error {
		switch mode {
		case sched.NoOrderFix:
			// New rank j contributes original rank mapping[j]'s block.
			return ExecuteAllgather(r.re, prog, send, recv, func(j int) int { return r.mapping[j] })
		case sched.InitComm:
			// Blocks are original ranks throughout: mine is block mapping[me].
			copy(recv[r.mapping[r.re.Rank()]*blk:], send)
			return executeProgram(r.re, prog, 0, recv, blk, nil, nil)
		case sched.EndShuffle:
			// Run in place, then shuffle: the block at position j belongs to
			// original rank mapping[j].
			if err := ExecuteAllgather(r.re, prog, send, recv, nil); err != nil {
				return err
			}
			r.re.TraceEnter("reordered/end-shuffle")
			tmp := mpi.GetBuf(len(recv))
			copy(tmp, recv)
			for j, orig := range r.mapping {
				copy(recv[orig*blk:], tmp[j*blk:(j+1)*blk])
			}
			mpi.FreeBuf(tmp)
			r.re.TraceExit("reordered/end-shuffle")
			return nil
		}
		return fmt.Errorf("collective: unknown order mode %v", mode)
	})
}
