package repro

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hwdisc"
	"repro/internal/mpi"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/simnet"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Re-exported topology types and constructors.
type (
	// Cluster models a multicore cluster: nodes x sockets x cores plus an
	// optional interconnect.
	Cluster = topology.Cluster
	// Network abstracts the inter-node interconnect (fat-tree or torus).
	Network = topology.Network
	// FatTree models a multi-level fat-tree network.
	FatTree = topology.FatTree
	// Torus3D models a 3D torus network with dimension-order routing.
	Torus3D = topology.Torus3D
	// Distances is the core-to-core physical distance matrix consumed by
	// the mapping heuristics.
	Distances = topology.Distances
	// DistanceOracle is the read interface the heuristics actually need —
	// implemented by both *Distances and the compact *Hierarchy.
	DistanceOracle = topology.Oracle
	// Hierarchy is the O(p)-memory hierarchical distance oracle for
	// fat-tree-like clusters; at p=4096 it replaces the 64 MB dense matrix,
	// and Plan runs on it.
	Hierarchy = topology.Hierarchy
	// LayoutKind names an initial process-to-core layout policy.
	LayoutKind = topology.LayoutKind
)

// The four initial layouts of the paper's evaluation.
var (
	BlockBunch    = topology.BlockBunch
	BlockScatter  = topology.BlockScatter
	CyclicBunch   = topology.CyclicBunch
	CyclicScatter = topology.CyclicScatter
)

// NewCluster builds a cluster model; see topology.NewCluster.
func NewCluster(nodes, socketsPerNode, coresPerSocket int, net Network) (*Cluster, error) {
	return topology.NewCluster(nodes, socketsPerNode, coresPerSocket, net)
}

// NewTorus3D builds an x by y by z torus interconnect.
func NewTorus3D(x, y, z int) *Torus3D { return topology.NewTorus3D(x, y, z) }

// GPC returns the model of the paper's testbed: 512 dual-socket quad-core
// nodes under the SciNet GPC fat-tree (paper Fig. 2).
func GPC() *Cluster { return topology.GPC() }

// GPCFatTree returns the paper's Fig. 2 interconnect on its own.
func GPCFatTree() *FatTree { return topology.GPCFatTree() }

// TwoLevelFatTree returns a simple two-level tree for small systems.
func TwoLevelFatTree(leaves, nodesPerLeaf, uplinks int) *FatTree {
	return topology.TwoLevelFatTree(leaves, nodesPerLeaf, uplinks)
}

// NewLayout places p processes on the cluster under the given layout kind
// and returns the rank-to-core array.
func NewLayout(c *Cluster, p int, k LayoutKind) ([]int, error) { return topology.Layout(c, p, k) }

// NewLayoutOnNodes places p processes over an explicit (possibly
// fragmented) node allocation; see topology.LayoutOnNodes.
func NewLayoutOnNodes(c *Cluster, p int, k LayoutKind, nodes []int) ([]int, error) {
	return topology.LayoutOnNodes(c, p, k, nodes)
}

// NewDistances computes the dense physical distance matrix over the given
// cores (indexed by rank) — the input ScotchMap and the Heuristic-typed
// functions take. Plan does not build it: it maps on the compact oracle
// wherever the interconnect allows one.
func NewDistances(c *Cluster, cores []int) (*Distances, error) {
	return topology.NewDistances(c, cores)
}

// NewHierarchy computes the compact hierarchical distance oracle over the
// given cores — equivalent to NewDistances entry for entry on hierarchical
// interconnects (fat-trees, uniform networks) but in O(p) memory; it is what
// Plan maps on there. It fails for non-hierarchical networks such as tori;
// use NewDistances there.
func NewHierarchy(c *Cluster, cores []int) (*Hierarchy, error) {
	return topology.NewHierarchy(c, cores)
}

// Mapping is a rank permutation: Mapping[newRank] = initial rank whose core
// hosts newRank.
type Mapping = core.Mapping

// Pattern names a collective communication pattern with a fine-tuned
// heuristic.
type Pattern = core.Pattern

// The patterns covered by the paper's heuristics, plus the complete exchange
// of MPI_Alltoall (this repository's torus extension: the win there comes
// from topology-native schedules, not from the mapping side).
const (
	RecursiveDoubling = core.RecursiveDoubling
	Ring              = core.Ring
	BinomialBroadcast = core.BinomialBroadcast
	BinomialGather    = core.BinomialGather
	AlltoallPattern   = core.Alltoall
)

// The paper's four fine-tuned mapping heuristics (Algorithms 2-5), plus
// BKMH, this repository's extension of the same recipe to the Bruck
// allgather (the paper's first future-work item).
var (
	RDMH = core.RDMH
	RMH  = core.RMH
	BBMH = core.BBMH
	BGMH = core.BGMH
	BKMH = core.BKMH
)

// ScotchMap runs the bundled general-purpose (Scotch-style) mapper on the
// communication pattern of pat — the baseline the paper compares against.
// Unlike the heuristics it must first build an explicit pattern graph.
func ScotchMap(pat Pattern, d *Distances) (Mapping, error) {
	g, err := patterns.Build(pat, d.N())
	if err != nil {
		return nil, err
	}
	return scotch.Map(g, d, nil)
}

// ReorderPlan is the result of planning a topology-aware reordering for one
// collective pattern on one job. A plan holds a lock; pass it by pointer.
type ReorderPlan struct {
	// Pattern is the collective pattern the plan optimises.
	Pattern Pattern
	// Mapping is the computed rank reordering.
	Mapping Mapping
	// Layout is the initial rank-to-core placement the plan was built for.
	Layout []int
	// ReorderedLayout is the placement after applying Mapping.
	ReorderedLayout []int
	// DiscoveryTime is the modelled one-time cost of extracting physical
	// distances (hwloc + InfiniBand tools in the paper).
	DiscoveryTime time.Duration
	// MappingTime is the measured wall-clock cost of the heuristic.
	MappingTime time.Duration

	// Speedup's size-independent pricing profiles for the last machine
	// priced on: one slot, refilled when another (Cluster, Params) asks.
	mu          sync.Mutex
	profCluster *Cluster
	profParams  CostParams
	defProf     *simnet.PriceProfile
	reorderProf *simnet.PriceProfile
}

// Plan performs the full run-time reordering workflow of paper Section IV
// for one pattern: extract physical distances (once), run the pattern's
// fine-tuned heuristic, and return the mapping together with its overheads.
// On hierarchical interconnects the distances are the O(p) Hierarchy, never
// the p x p matrix.
func Plan(c *Cluster, layout []int, pat Pattern) (*ReorderPlan, error) {
	plans, err := PlanAll(c, layout, pat)
	if err != nil {
		return nil, err
	}
	return plans[0], nil
}

// PlanAll plans reorderings for several patterns while paying the
// physical-distance discovery only once — the paper's point that the
// extraction is a one-time overhead while "the whole process can be
// repeated to create reordered communicators for each desired collective
// communication pattern" (Section IV). The returned plans appear in the
// order of the patterns argument and share the same DiscoveryTime.
func PlanAll(c *Cluster, layout []int, pats ...Pattern) ([]*ReorderPlan, error) {
	if len(pats) == 0 {
		return nil, fmt.Errorf("repro: no patterns given")
	}
	discovery, err := hwdisc.Cost(c, layout, hwdisc.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	oracle, err := topology.NewOracle(c, layout)
	if err != nil {
		return nil, err
	}
	plans := make([]*ReorderPlan, 0, len(pats))
	for _, pat := range pats {
		h := pat.OracleHeuristic()
		if h == nil {
			return nil, fmt.Errorf("repro: no heuristic for pattern %v", pat)
		}
		start := time.Now()
		m, err := h(nil, oracle, nil)
		if err != nil {
			return nil, err
		}
		mappingTime := time.Since(start)
		re, err := m.Apply(layout)
		if err != nil {
			return nil, err
		}
		plans = append(plans, &ReorderPlan{
			Pattern:         pat,
			Mapping:         m,
			Layout:          layout,
			ReorderedLayout: re,
			DiscoveryTime:   discovery,
			MappingTime:     mappingTime,
		})
	}
	return plans, nil
}

// Machine is the contention-aware cost model over a cluster.
type Machine = simnet.Machine

// CostParams holds the cost-model constants.
type CostParams = simnet.Params

// DefaultCostParams returns constants calibrated to the paper's testbed.
func DefaultCostParams() CostParams { return simnet.DefaultParams() }

// NewMachine binds a cluster to cost parameters.
func NewMachine(c *Cluster, p CostParams) (*Machine, error) { return simnet.NewMachine(c, p) }

// Speedup prices the plan's pattern at the given per-process message size
// under both the initial and the reordered layout and returns (default
// seconds, reordered seconds, improvement percent). The reordered time
// includes the extra-initial-communication order fix where the algorithm
// needs one.
//
// Contention does not depend on the message size, so the first call for a
// machine aggregates both schedules once and every further size on that
// machine is a few multiply-adds per stage; the prices equal Machine.Price
// of the two schedules bit for bit. Safe for concurrent use. The plan's
// exported fields must not be modified once Speedup has been called.
func (p *ReorderPlan) Speedup(m *Machine, msgBytes int) (def, reordered, improvement float64, err error) {
	defProf, reorderProf, err := p.profiles(m)
	if err != nil {
		return 0, 0, 0, err
	}
	def, err = defProf.Price(msgBytes)
	if err != nil {
		return 0, 0, 0, err
	}
	reordered, err = reorderProf.Price(msgBytes)
	if err != nil {
		return 0, 0, 0, err
	}
	if def > 0 {
		improvement = (def - reordered) / def * 100
	}
	return def, reordered, improvement, nil
}

// profiles returns the pricing profiles of the default and the
// order-preserved reordered schedule on m, building them when the plan's
// slot holds another machine's (or none). Params is compared by value, so
// editing m.Params between calls re-profiles.
func (p *ReorderPlan) profiles(m *Machine) (def, reordered *simnet.PriceProfile, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.defProf != nil && p.profCluster == m.Cluster && p.profParams == m.Params {
		return p.defProf, p.reorderProf, nil
	}
	s, err := sched.ForPattern(p.Pattern, len(p.Layout))
	if err != nil {
		return nil, nil, err
	}
	if def, err = m.ProfileSchedule(context.Background(), s, p.Layout); err != nil {
		return nil, nil, err
	}
	withFix, err := sched.WithOrderPreservation(s, p.Mapping, sched.InitComm)
	if err != nil {
		return nil, nil, err
	}
	if reordered, err = m.ProfileSchedule(context.Background(), withFix, p.ReorderedLayout); err != nil {
		return nil, nil, err
	}
	p.profCluster, p.profParams = m.Cluster, m.Params
	p.defProf, p.reorderProf = def, reordered
	return def, reordered, nil
}

// Runtime re-exports: the goroutine MPI-like runtime.
type (
	// Comm is a communicator of the bundled message-passing runtime.
	Comm = mpi.Comm
	// Reordered couples a communicator with its reordered copy and the
	// order-preservation machinery.
	Reordered = collective.Reordered
	// Algorithm selects a flat allgather algorithm.
	Algorithm = collective.Algorithm
	// OrderMode selects the output-order preservation mechanism.
	OrderMode = sched.OrderMode
)

// Allgather algorithm selectors.
const (
	AlgAuto              = collective.AlgAuto
	AlgRecursiveDoubling = collective.AlgRecursiveDoubling
	AlgRing              = collective.AlgRing
	AlgBruck             = collective.AlgBruck
	AlgNeighborExchange  = collective.AlgNeighborExchange
)

// Order-preservation modes (paper Section V-B).
const (
	InitComm   = sched.InitComm
	EndShuffle = sched.EndShuffle
)

// Run spawns a world of p communicating processes; see mpi.Run.
func Run(p int, body func(c *Comm) error) error { return mpi.Run(p, body) }

// Allgather runs a flat allgather on the runtime.
func Allgather(c *Comm, send, recv []byte, alg Algorithm) error {
	return collective.Allgather(c, send, recv, alg)
}

// ReduceOp combines src into dst element-wise; it must be associative and
// commutative.
type ReduceOp = collective.ReduceOp

// Alltoall runs the complete exchange: send block d goes to rank d, recv
// block s arrives from rank s. The schedule comes from the world's
// synthesized table when one covers the shape, otherwise from the family's
// per-pair-size baseline rule.
func Alltoall(c *Comm, send, recv []byte) error {
	return collective.Alltoall(c, send, recv)
}

// Allreduce combines buf in place across all ranks.
func Allreduce(c *Comm, buf []byte, op ReduceOp) error {
	return collective.Allreduce(c, buf, op)
}

// Broadcast distributes root's data to every rank.
func Broadcast(c *Comm, root int, data []byte) error {
	return collective.Broadcast(c, root, data)
}

// Gather collects every rank's send block into recv on the root.
func Gather(c *Comm, root int, send, recv []byte) error {
	return collective.Gather(c, root, send, recv)
}

// Scatter distributes the root's data blocks, one per rank, into out.
func Scatter(c *Comm, root int, data, out []byte) error {
	return collective.Scatter(c, root, data, out)
}

// NewReordered collectively builds the reordered communicator for mapping m
// with the chosen order-preservation mode.
func NewReordered(c *Comm, m Mapping, mode OrderMode) (*Reordered, error) {
	return collective.NewReordered(c, m, mode)
}

// Schedule-synthesis re-exports: offline-searched schedule tables and
// per-world selection tuning (DESIGN.md §11).
type (
	// CollectiveConfig carries a world's collective state: an optional
	// synthesized-schedule table — the one per-world override of algorithm
	// selection — plus executor sampling and observability hooks.
	CollectiveConfig = collective.Config
	// CollectiveTuning holds the executor's stage-sampling knobs
	// (StageSampleRank, StageSampleEvery). The selection thresholds are
	// constants of the family registry, not fields here.
	CollectiveTuning = collective.Tuning
	// SynthTable is a table of searched schedule winners, keyed by
	// topology fingerprint x family x size bucket (written by cmd/synth).
	SynthTable = synth.Table
	// SynthSelector serves SynthTable entries to the collective front
	// doors, memoizing materialization and rejecting stale fingerprints.
	SynthSelector = synth.Selector
)

// Configure installs per-world collective configuration on c's world; any
// rank may call it and every rank (and derived communicator) observes it.
func Configure(c *Comm, cfg CollectiveConfig) { collective.Configure(c, cfg) }

// LoadSynthTable reads a synthesized-schedule table written by cmd/synth.
func LoadSynthTable(path string) (*SynthTable, error) { return synth.LoadFile(path) }

// NewSynthSelector wraps a table for use as CollectiveConfig.Synth.
func NewSynthSelector(t *SynthTable) *SynthSelector { return synth.NewSelector(t) }
