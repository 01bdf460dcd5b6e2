package collective

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// checkAlltoallArgs validates the MPI_Alltoall buffer contract: both buffers
// carry one equal-size block per rank, with send block d destined to rank d
// and recv block s arriving from rank s.
func checkAlltoallArgs(c *mpi.Comm, send, recv []byte) (blk int, err error) {
	p := c.Size()
	if len(send) == 0 || len(send)%p != 0 {
		return 0, fmt.Errorf("collective: alltoall send buffer of %d bytes does not divide into %d blocks",
			len(send), p)
	}
	if len(recv) != len(send) {
		return 0, fmt.Errorf("collective: alltoall recv buffer is %d bytes, want %d", len(recv), len(send))
	}
	return len(send) / p, nil
}

// ExecuteAlltoall runs a compiled all-to-all program (InitSlab over the p^2
// pair-block space): send block d reaches rank d, recv block s arrives from
// rank s. The executor works over a p^2-block scratch buffer — rank r's send
// row occupies its initialisation slab (blocks r*p..(r+1)*p-1, matching
// sched's pairBlock numbering), and the delivered column s*p+me is extracted
// into recv afterwards.
func ExecuteAlltoall(c *mpi.Comm, prog *sched.Program, send, recv []byte) error {
	return executeAlltoall(c, prog, c.Rank(), nil, send, recv)
}

// executeAlltoall stages the caller's send row at pair-block row `row` of a
// pooled p^2-block scratch, runs prog under place, and extracts column `row`
// into recv. The plain collective passes its own rank and no placement; the
// reordered one passes its original rank and the pair-space relabelling.
func executeAlltoall(c *mpi.Comm, prog *sched.Program, row int, place Placement, send, recv []byte) error {
	blk, err := checkAlltoallArgs(c, send, recv)
	if err != nil {
		return err
	}
	p := c.Size()
	if prog.Init != sched.InitSlab || prog.Blocks != p*p {
		return fmt.Errorf("collective: program %q is not an all-to-all program for %d ranks", prog.Name, p)
	}
	buf := mpi.GetBuf(prog.Blocks * blk)
	defer mpi.FreeBuf(buf)
	copy(buf[row*p*blk:], send)
	if err := executeProgram(c, prog, 0, buf, blk, place, nil); err != nil {
		return err
	}
	for s := 0; s < p; s++ {
		pair := s*p + row
		copy(recv[s*blk:(s+1)*blk], buf[pair*blk:(pair+1)*blk])
	}
	return nil
}

// Alltoall is the MPI_Alltoall front door: send block d reaches rank d's
// recv block for the caller's rank. The world's synthesized selection table
// is consulted first — on a torus that serves the dimension-wise
// direct-connect schedule in the small-message regime — and on a miss the
// family registry's baseline rule selects Bruck for small per-pair payloads
// and pairwise exchange above, compiled and run on the schedule executor.
func Alltoall(c *mpi.Comm, send, recv []byte) error {
	if _, err := checkAlltoallArgs(c, send, recv); err != nil {
		return err
	}
	prog, err := selectProgram(c, sched.FamilyAlltoall, c.Size(), len(send), AlgAuto)
	if err != nil {
		return err
	}
	return tracedExecute(c, prog.Name, "alltoall", prog.Name, func() error {
		return ExecuteAlltoall(c, prog, send, recv)
	})
}

// Alltoall performs the topology-aware all-to-all over the reordered
// communicator while send/recv keep the *original* rank contract: send block
// d is for original rank d, recv block s is from original rank s. The
// relabelling rides the executor's Placement hook over the p^2 pair-block
// space — pair block (s, d) of the reordered schedule lives at the buffer
// offset of original pair (mapping[s], mapping[d]) — so, like the ring
// allgather's in-algorithm fix, order preservation costs no extra traffic.
func (r *Reordered) Alltoall(send, recv []byte) error {
	if _, err := checkAlltoallArgs(r.re, send, recv); err != nil {
		return err
	}
	p := r.re.Size()
	prog, err := selectProgram(r.re, sched.FamilyAlltoall, p, len(send), AlgAuto)
	if err != nil {
		return err
	}
	// My slab rows are pair blocks (me, d); under place they sit at original
	// row mapping[me] in original column order — exactly the caller's send
	// layout — and the column delivered to me is original column mapping[me].
	place := func(b int) int { return r.mapping[b/p]*p + r.mapping[b%p] }
	return tracedExecute(r.re, "reordered", "alltoall", prog.Name, func() error {
		return executeAlltoall(r.re, prog, r.mapping[r.re.Rank()], place, send, recv)
	})
}
