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
	return tracedExecute(c, "allgather", prog.Name, func() error {
		return ExecuteAllgather(c, prog, send, recv, nil)
	})
}

// Reordered couples an original communicator with its reordered copy — the
// run-time artefact of paper Section IV. Construct it once per communicator
// and pattern with NewReordered; subsequent Allgather calls go through the
// reordered copy with output order preserved.
type Reordered struct {
	orig    *mpi.Comm
	re      *mpi.Comm
	mapping core.Mapping
	inv     []int // inv[origRank] = new rank
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
	return &Reordered{orig: c, re: re, mapping: m, inv: m.NewRankOf(), mode: mode}, nil
}

// Comm returns the reordered communicator.
func (r *Reordered) Comm() *mpi.Comm { return r.re }

// Mapping returns the rank mapping (new rank -> old rank).
func (r *Reordered) Mapping() core.Mapping { return r.mapping }

// Allgather performs the topology-aware allgather: the collective runs over
// the reordered communicator while send/recv follow the *original* rank
// contract — recv holds block i of original rank i, for every i.
//
// Order preservation (paper Section V-B):
//
//   - the ring, neighbour exchange and synthesized programs store incoming
//     blocks at original-rank offsets in-algorithm (no overhead);
//   - recursive doubling and Bruck use the configured mechanism: InitComm
//     exchanges input vectors up front so new rank j starts with original
//     rank j's input, EndShuffle permutes the output buffer afterwards.
func (r *Reordered) Allgather(send, recv []byte, alg Algorithm) error {
	blk, err := checkAllgatherArgs(r.re, send, recv)
	if err != nil {
		return err
	}
	defer beginCollective("reordered")()
	prog, err := selectProgram(r.re, sched.FamilyAllgather, r.re.Size(), blk, alg)
	if err != nil {
		return err
	}
	if prog.Name != "recursive-doubling" && prog.Name != "bruck" {
		// In-algorithm fix: contributor with new rank j is original rank
		// mapping[j]; the executor places its block there, so no extra
		// order-preservation mechanism is needed.
		return r.execute(prog, send, recv, func(j int) int { return r.mapping[j] })
	}

	switch r.mode {
	case sched.InitComm:
		input := send
		me := r.re.Rank()
		if r.mapping[me] != me {
			// Send my input to the process acting as my original rank; my
			// original rank is mapping[me]. Receive the input of original
			// rank me from the process holding it (new rank inv[me]).
			r.re.TraceEnter("reordered/init-comm")
			if err := r.re.Send(r.mapping[me], tagOrderFix, send); err != nil {
				return err
			}
			in, err := r.re.Recv(r.inv[me], tagOrderFix)
			r.re.TraceExit("reordered/init-comm")
			if err != nil {
				return err
			}
			defer mpi.FreeBuf(in) // this rank owns the payload; execute copies it into recv
			if len(in) != blk {
				return fmt.Errorf("collective: initComm received %d bytes, want %d", len(in), blk)
			}
			input = in
		}
		return r.execute(prog, input, recv, nil)
	case sched.EndShuffle, sched.NoOrderFix:
		// Run in place, then shuffle: the block at position j belongs to
		// original rank mapping[j]. NoOrderFix on an order-sensitive
		// algorithm would return permuted output, so it shuffles too.
		if err := r.execute(prog, send, recv, nil); err != nil {
			return err
		}
		r.re.TraceEnter("reordered/end-shuffle")
		tmp := mpi.GetBuf(len(recv))
		copy(tmp, recv)
		for j := 0; j < r.re.Size(); j++ {
			copy(recv[r.mapping[j]*blk:], tmp[j*blk:(j+1)*blk])
		}
		mpi.FreeBuf(tmp)
		r.re.TraceExit("reordered/end-shuffle")
		return nil
	default:
		return fmt.Errorf("collective: unknown order mode %v", r.mode)
	}
}

// execute runs prog on the reordered communicator inside its trace span.
func (r *Reordered) execute(prog *sched.Program, send, recv []byte, place Placement) error {
	name := "allgather/" + prog.Name
	r.re.TraceEnter(name)
	defer r.re.TraceExit(name)
	return ExecuteAllgather(r.re, prog, send, recv, place)
}
