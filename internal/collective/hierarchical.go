package collective

import (
	"strings"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// HierarchicalAllgather runs the three-phase hierarchical allgather of paper
// Section II — intra-node gather into node leaders, inter-leader allgather,
// intra-node broadcast — as one compiled program on the schedule executor.
// nodeID assigns every *world* rank to its node (or any other grouping
// domain); all processes must pass consistent functions. Each node's leader
// is its lowest communicator rank.
//
// Every rank derives the node groups locally from nodeID over the
// communicator's members, so an unsupported shape — non-uniform node
// populations, a non-power-of-two node count under recursive doubling, or
// the ring inter phase over non-contiguous groups (the paper's "not
// supported with cyclic mapping") — is the same immediate error on every
// rank. Blocks are identified by contributor rank throughout, so the output
// is in rank order however the ranks are spread over nodes.
func HierarchicalAllgather(c *mpi.Comm, send, recv []byte, nodeID func(worldRank int) int, cfg sched.HierarchicalConfig) error {
	if _, err := checkAllgatherArgs(c, send, recv); err != nil {
		return err
	}
	ids := pooledInts(c.Size())
	defer intsPool.Put(ids)
	nodes := c.AppendMembers((*ids)[:0])
	for r, w := range nodes {
		nodes[r] = nodeID(w)
	}
	prog, err := planOf(nodes, hierPlanKey{cfg: cfg}, func() (*sched.Schedule, error) {
		return sched.Hierarchical(sched.Groups(nodes, func(node int) int { return node }), cfg)
	})
	if err != nil {
		return err
	}
	return tracedExecute(c, "allgather", prog.Name, func() error {
		return ExecuteAllgather(c, prog, send, recv, nil)
	})
}

// hierPlanKey identifies one plan: the per-comm-rank node ids (plain
// compositions), cores (reordered composition, with the cluster whose
// distances order its phases) or rank mapping (an order-fixed allgather),
// the allgather configuration, the program the plan is built from (the
// allreduce's leader program, the order fix's base program; nil for the
// hierarchical allgathers) and the order-preservation mode. The program is a
// pure function of these, so plans are shared across communicators and
// worlds of equal shape.
type hierPlanKey struct {
	ids     string // the ids slice's bytes, see planOf
	cluster *topology.Cluster
	cfg     sched.HierarchicalConfig
	base    *sched.Program
	mode    sched.OrderMode
}

// hierPlanTable is the plans' (hierarchical compositions, order-fixed
// allgathers) instance of the program table: same bound, counters and
// ResetCompileCache as the flat front doors' (family, builder, p) table.
var hierPlanTable = sched.NewProgramTable[hierPlanKey]()

// planOf returns the compiled, executable program of the plan identified by
// key with its ids set from ids, building it with build on first use — the
// runtime counterpart of the paper creating the reordered communicators once,
// at communicator-creation time. A steady-state call is one table lookup: no
// grouping, no mapping heuristic, no compile.
//
// The lookup views ids' memory as a string instead of copying it, which keeps
// it allocation-free on every rank of every call; a miss files a copy, so the
// table never keeps a key that aliases the caller's slice. A build runs on
// the caller's goroutine, so ids may be reused once planOf returns.
func planOf(ids []int, key hierPlanKey, build func() (*sched.Schedule, error)) (*sched.Program, error) {
	key.ids = unsafe.String((*byte)(unsafe.Pointer(unsafe.SliceData(ids))), len(ids)*int(unsafe.Sizeof(ids[0])))
	if prog, ok := hierPlanTable.Lookup(key); ok {
		return prog, nil
	}
	key.ids = strings.Clone(key.ids)
	return hierPlanTable.Get(key, func() (*sched.Program, error) {
		s, err := build()
		if err != nil {
			return nil, err
		}
		prog, err := sched.Compile(s)
		if err != nil {
			return nil, err
		}
		return prog, prog.EnsureExecutable()
	})
}
