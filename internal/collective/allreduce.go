package collective

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// ReduceOp combines src into dst element-wise; both slices have equal
// length. It must be associative and commutative for tree reductions.
// Programs combine block by block, cutting buffers only at multiples of
// sched.ReduceElemBytes, so elements up to that width stay whole.
type ReduceOp func(dst, src []byte)

// HierarchicalAllreduce implements the paper's future-work extension: a
// topology-friendly MPI_Allreduce composed of an intra-node binomial reduce
// into the leaders, a leader-level allreduce, and an intra-node binomial
// broadcast — reusing exactly the patterns BGMH and BBMH optimise — run as
// one compiled program on the schedule executor (sched.HierarchicalAllreduce).
// nodeID groups world ranks into nodes, whose populations may differ; each
// node's leader is its lowest communicator rank. The leader phase is the
// program selectProgram picks for an allreduce over the leaders, so a warm
// call is two table lookups. buf is combined in place on every rank.
func HierarchicalAllreduce(c *mpi.Comm, buf []byte, op ReduceOp, nodeID func(worldRank int) int) error {
	ids, sorted := pooledInts(c.Size()), pooledInts(c.Size())
	defer intsPool.Put(ids)
	defer intsPool.Put(sorted)
	nodes := c.AppendMembers((*ids)[:0])
	for r, w := range nodes {
		nodes[r] = nodeID(w)
	}
	copy(*sorted, nodes)
	slices.Sort(*sorted)
	leader, err := selectProgram(c, sched.FamilyAllreduce, len(slices.Compact(*sorted)), len(buf), AlgAuto)
	if err != nil {
		return err
	}
	prog, err := planOf(nodes, hierPlanKey{base: leader}, func() (*sched.Schedule, error) {
		return sched.HierarchicalAllreduce(sched.Groups(nodes, func(node int) int { return node }), leader.Schedule())
	})
	if err != nil {
		return err
	}
	return tracedExecute(c, "allreduce", "hierarchical-allreduce", func() error {
		return ExecuteAllreduce(c, prog, buf, op)
	})
}

// Allreduce combines buf in place across all ranks with the program
// selectProgram picks: the world's synth table entry, else the registry rule
// (reduce-scatter + allgather for large divisible buffers on power-of-two
// communicators, the binomial reduce + broadcast tree otherwise). op must be
// associative and commutative.
func Allreduce(c *mpi.Comm, buf []byte, op ReduceOp) error {
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	prog, err := selectProgram(c, sched.FamilyAllreduce, c.Size(), len(buf), AlgAuto)
	if err != nil {
		return err
	}
	return tracedExecute(c, "allreduce", allreduceLabel(prog), func() error {
		return ExecuteAllreduce(c, prog, buf, op)
	})
}

// allreduceLabel is the trace label of an allreduce program: its name,
// except that reduce-scatter + allgather keeps the label its spans have
// always carried.
func allreduceLabel(prog *sched.Program) string {
	if prog.Name == "reduce-scatter-allgather" {
		return "rabenseifner"
	}
	return prog.Name
}
