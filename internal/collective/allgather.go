// Package collective is the MPI collective layer on top of the mpi runtime:
// allgather, allreduce, broadcast, gather, scatter and all-to-all front
// doors, the reordered communicator of paper Section IV, and the three-phase
// hierarchical compositions: the allgather of Section II and the allreduce of
// the paper's future work.
//
// Every collective is a static schedule from package sched, compiled to a
// sched.Program and run by one engine, the schedule executor (executor.go):
// a front door only selects a program (selectProgram: the forced builder,
// else the world's synth table, else the family registry's size rule) and
// hands it over; a hierarchical composition looks up its one plan program
// (planOf). The program simnet prices is therefore the program that moves
// the bytes, order fixes included: Reordered's initComm exchange is its
// program's Pre stage. Correctness is checked against closed-form expected
// buffers per family, never against a second implementation. Order
// preservation under rank reordering (Section V-B) is a Placement: the
// executor stores each block at the output offset of its *original*
// contributor, so ring-like algorithms need no extra mechanism.
package collective

import (
	"fmt"

	"repro/internal/mpi"
)

// Placement maps a program block to its position in the caller's buffer. A
// nil Placement is the identity. Reordered communicators pass the mapping so
// that block j — contributed by new rank j — lands at its original rank's
// offset; rooted collectives pass the root rotation.
type Placement func(block int) int

// checkAllgatherArgs validates the common allgather buffer contract.
func checkAllgatherArgs(c *mpi.Comm, send, recv []byte) (blk int, err error) {
	blk = len(send)
	if blk == 0 {
		return 0, fmt.Errorf("collective: empty send buffer")
	}
	if len(recv) != blk*c.Size() {
		return 0, fmt.Errorf("collective: recv buffer is %d bytes, want %d (%d ranks x %d)",
			len(recv), blk*c.Size(), c.Size(), blk)
	}
	return blk, nil
}
