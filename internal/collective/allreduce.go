package collective

import (
	"fmt"
	"math/bits"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// ReduceOp combines src into dst element-wise; both slices have equal
// length. It must be associative and commutative for tree reductions.
type ReduceOp func(dst, src []byte)

// tag base for reductions.
const tagReduce = 5 << 20

// BinomialReduce reduces every rank's buf into the root along the binomial
// tree (mirror image of the binomial broadcast, so the BGMH mapping
// rationale applies: message sizes are fixed but the fan-in pattern matches
// the gather tree). On return the root's buf holds the combined value;
// other ranks' buffers are unspecified scratch. A rooted reduce has no
// schedule family, so this is the one collective loop outside the executor.
func BinomialReduce(c *mpi.Comm, root int, buf []byte, op ReduceOp) error {
	p, me := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return fmt.Errorf("collective: reduce root %d outside communicator of size %d", root, p)
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	defer beginCollective("binomial-reduce")()
	vr := ((me-root)%p + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			parent := (vr - mask + root) % p
			return c.Send(parent, tagReduce+bits.TrailingZeros(uint(mask)), buf)
		}
		if vr+mask < p {
			child := (vr + mask + root) % p
			in, err := c.Recv(child, tagReduce+bits.TrailingZeros(uint(mask)))
			if err != nil {
				return err
			}
			if len(in) != len(buf) {
				return fmt.Errorf("collective: reduce received %d bytes, want %d", len(in), len(buf))
			}
			op(buf, in)
		}
	}
	return nil
}

// HierarchicalAllreduce implements the paper's future-work extension: a
// topology-friendly MPI_Allreduce composed of an intra-node binomial reduce
// into the leaders, a leader-level allreduce, and an intra-node broadcast —
// reusing exactly the patterns BGMH and BBMH optimise.
// nodeID groups world ranks into nodes; buf is combined in place on every
// rank.
func HierarchicalAllreduce(c *mpi.Comm, buf []byte, op ReduceOp, nodeID func(worldRank int) int) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	defer beginCollective("hierarchical-allreduce")()
	nodeComm, err := c.Split(nodeID(c.WorldRank()), c.Rank())
	if err != nil {
		return err
	}
	if nodeComm == nil {
		return fmt.Errorf("collective: allreduce node split produced no communicator")
	}
	isLeader := nodeComm.Rank() == 0
	leaderColor := -1
	if isLeader {
		leaderColor = 0
	}
	leaderComm, err := c.Split(leaderColor, c.Rank())
	if err != nil {
		return err
	}
	// Phase 1: reduce within each node.
	if err := BinomialReduce(nodeComm, 0, buf, op); err != nil {
		return err
	}
	// Phase 2: allreduce among leaders.
	if isLeader {
		if err := Allreduce(leaderComm, buf, op); err != nil {
			return err
		}
	}
	// Phase 3: broadcast inside each node.
	return Broadcast(nodeComm, 0, buf)
}

// Allreduce combines buf in place across all ranks with the program
// selectProgram picks: the world's synth table entry, else the registry rule
// (reduce-scatter + allgather for large divisible buffers on power-of-two
// communicators, the binomial reduce + broadcast tree otherwise). op must be
// associative and commutative.
func Allreduce(c *mpi.Comm, buf []byte, op ReduceOp) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	prog, err := selectProgram(c, sched.FamilyAllreduce, len(buf), AlgAuto)
	if err != nil {
		return err
	}
	return tracedExecute(c, "allreduce", allreduceLabel(prog), func() error {
		return ExecuteAllreduce(c, prog, buf, op)
	})
}

// allreduceLabel is the metrics and trace label of an allreduce program: its
// name, except that reduce-scatter + allgather keeps the label its series
// have always carried.
func allreduceLabel(prog *sched.Program) string {
	if prog.Name == "reduce-scatter-allgather" {
		return "rabenseifner"
	}
	return prog.Name
}
