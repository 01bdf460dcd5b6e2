// Dense (map-based) stage pricing: the original implementation of the
// contention model, retained as the reference that the sparse epoch-stamped
// implementation in sparse.go is pinned bit-identical against by
// equivalence_test.go. It allocates five maps per stage and recomputes every
// route once during aggregation and once per transfer during pricing;
// production pricing runs on the sparse path only, through the one stage
// walk (walk, sparse.go) that every entry point visits.
package simnet

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/topology"
)

// qpiDir is one direction of one node's socket interconnect.
type qpiDir struct {
	node       int
	fromSocket int // local socket index of the sending side
}

// stageLoads aggregates the shared-resource loads of one stage.
type stageLoads struct {
	send, recv map[int]int // per-core message counts
	netLinks   map[topology.DirLink]int
	qpi        map[qpiDir]int
	socketMem  map[int]int // per global socket index
}

func newStageLoads() *stageLoads {
	return &stageLoads{
		send:      make(map[int]int),
		recv:      make(map[int]int),
		netLinks:  make(map[topology.DirLink]int),
		qpi:       make(map[qpiDir]int),
		socketMem: make(map[int]int),
	}
}

// aggregateLoads fills loads with the per-resource message counts of one
// stage execution under the given layout.
func (m *Machine) aggregateLoads(transfers []sched.Transfer, layout []int, loads *stageLoads) {
	var routeBuf []topology.DirLink
	for i := range transfers {
		tr := &transfers[i]
		src, dst := layout[tr.Src], layout[tr.Dst]
		loads.send[src]++
		loads.recv[dst]++
		srcNode, dstNode := m.Cluster.NodeOf(src), m.Cluster.NodeOf(dst)
		switch {
		case srcNode != dstNode:
			if m.Cluster.Net == nil {
				continue // uniform inter-node channel, no link accounting
			}
			routeBuf = m.Cluster.Net.RouteDir(routeBuf[:0], srcNode, dstNode)
			for _, dl := range routeBuf {
				loads.netLinks[dl]++
			}
		case m.Cluster.SocketOf(src) != m.Cluster.SocketOf(dst):
			loads.qpi[qpiDir{srcNode, m.localSocket(src)}]++
			loads.socketMem[m.Cluster.SocketOf(src)]++
			loads.socketMem[m.Cluster.SocketOf(dst)]++
		default:
			loads.socketMem[m.Cluster.SocketOf(src)]++
		}
	}
}

// priceStageDense returns the completion time of one execution of a stage's
// transfer list, computed with the dense map-based accounting.
func (m *Machine) priceStageDense(transfers []sched.Transfer, layout []int, blockBytes int) (float64, error) {
	if len(transfers) == 0 {
		return 0, nil
	}
	loads := newStageLoads()
	m.aggregateLoads(transfers, layout, loads)
	var routeBuf []topology.DirLink

	worst := 0.0
	for i := range transfers {
		t, err := m.transferTimeDense(&transfers[i], layout, blockBytes, loads, &routeBuf)
		if err != nil {
			return 0, err
		}
		if t > worst {
			worst = t
		}
	}
	return worst, nil
}

// priceProgramDense mirrors PriceProgram on the dense accounting.
func (m *Machine) priceProgramDense(prog *sched.Program, layout []int, blockBytes int) (float64, error) {
	if len(layout) < prog.P {
		return 0, fmt.Errorf("simnet: layout covers %d ranks, schedule has %d", len(layout), prog.P)
	}
	if blockBytes <= 0 {
		return 0, fmt.Errorf("simnet: block size must be positive, got %d", blockBytes)
	}
	if err := topology.ValidateLayout(m.Cluster, layout); err != nil {
		return 0, err
	}
	total := 0.0
	for _, stages := range [][]sched.Stage{prog.Schedule().Pre, prog.Schedule().Stages} {
		for i := range stages {
			st := &stages[i]
			t, err := m.priceStageDense(st.Transfers, layout, blockBytes)
			if err != nil {
				return 0, err
			}
			total += t * float64(st.Repeats())
		}
	}
	if prog.PostCopyBlocks > 0 {
		total += float64(prog.PostCopyBlocks) * float64(blockBytes) / m.Params.MemCopy
	}
	return total, nil
}

// transferTimeDense prices one transfer under the stage's aggregated loads.
func (m *Machine) transferTimeDense(tr *sched.Transfer, layout []int, blockBytes int, loads *stageLoads, routeBuf *[]topology.DirLink) (float64, error) {
	p := &m.Params
	src, dst := layout[tr.Src], layout[tr.Dst]
	bytes := float64(tr.N) * float64(blockBytes)
	endpoint := loads.send[src]
	if r := loads.recv[dst]; r > endpoint {
		endpoint = r
	}

	srcNode, dstNode := m.Cluster.NodeOf(src), m.Cluster.NodeOf(dst)
	var alpha, streamBeta float64
	// invRate accumulates the largest effective seconds-per-byte across the
	// per-stream bandwidth (scaled by endpoint serialisation) and every
	// shared resource on the path.
	maxInv := 0.0
	bump := func(inv float64) {
		if inv > maxInv {
			maxInv = inv
		}
	}
	switch {
	case srcNode != dstNode:
		hops := 2
		if m.Cluster.Net != nil {
			hops = m.Cluster.Net.Hops(srcNode, dstNode)
		}
		alpha = p.AlphaNet + p.AlphaPerHop*float64(hops)
		streamBeta = 1 / p.StreamNet
		if m.Cluster.Net != nil {
			*routeBuf = m.Cluster.Net.RouteDir((*routeBuf)[:0], srcNode, dstNode)
			for _, dl := range *routeBuf {
				load := loads.netLinks[dl]
				cap_ := p.CapNetPerCable * float64(m.Cluster.Net.Multiplicity(dl.Link))
				bump(float64(load) / cap_)
			}
		}
	case m.Cluster.SocketOf(src) != m.Cluster.SocketOf(dst):
		alpha = p.AlphaQPI
		streamBeta = 1 / p.StreamQPI
		bump(float64(loads.qpi[qpiDir{srcNode, m.localSocket(src)}]) / p.CapQPIDir)
		bump(float64(loads.socketMem[m.Cluster.SocketOf(src)]) / p.CapSocketMem)
		bump(float64(loads.socketMem[m.Cluster.SocketOf(dst)]) / p.CapSocketMem)
	case src == dst:
		return 0, fmt.Errorf("simnet: transfer between rank %d and %d lands on one core", tr.Src, tr.Dst)
	default:
		alpha = p.AlphaShm
		streamBeta = 1 / p.StreamShm
		bump(float64(loads.socketMem[m.Cluster.SocketOf(src)]) / p.CapSocketMem)
	}
	bump(streamBeta * float64(endpoint))
	return alpha + bytes*maxInv, nil
}

// localSocket returns the within-node socket index of a core.
func (m *Machine) localSocket(core int) int {
	return (core % m.Cluster.CoresPerNode()) / m.Cluster.CoresPerSocket
}
