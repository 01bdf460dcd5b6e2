// Package topology models the physical topology of a multicore HPC cluster:
// the intra-node hierarchy (cores grouped into sockets grouped into nodes)
// and the inter-node interconnect (a multi-level fat-tree with deterministic
// up-down routing).
//
// The model follows the system evaluated in Mirsadeghi & Afsahi,
// "Topology-Aware Rank Reordering for MPI Collectives" (IPDPS Workshops
// 2016): the GPC cluster at SciNet, whose nodes hold two quad-core sockets
// and whose network is a fat-tree of 32 leaf switches and two core switches,
// each core switch internally a two-level fat-tree of 8 line and 9 spine
// switches (paper Fig. 2). Constructors for that exact system as well as for
// generic parameterised clusters are provided.
//
// Everything the mapping heuristics need reduces to two artefacts derived
// from this model: a core-to-core distance matrix (see Distances) and, for
// the congestion-aware cost model, per-message link routes (see
// FatTree.Route).
package topology

import (
	"fmt"
)

// Cluster describes a homogeneous cluster: Nodes compute nodes, each with
// SocketsPerNode CPU sockets of CoresPerSocket cores, interconnected by Net.
//
// Cores are identified globally by a dense index in [0, TotalCores()):
// core c lives on node c / CoresPerNode(), socket (c % CoresPerNode()) /
// CoresPerSocket within that node, and local core index c % CoresPerSocket
// within that socket. This fixed enumeration mirrors how resource managers
// present cores to a job.
type Cluster struct {
	Nodes          int
	SocketsPerNode int
	CoresPerSocket int
	Net            Network
}

// NewCluster builds a cluster with the given shape and network. The network
// may be nil for single-node studies; in that case all inter-node distances
// are reported with a uniform network hop count of 2 (one switch).
func NewCluster(nodes, socketsPerNode, coresPerSocket int, net Network) (*Cluster, error) {
	if nodes <= 0 || socketsPerNode <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("topology: cluster dimensions must be positive (nodes=%d sockets=%d cores=%d)",
			nodes, socketsPerNode, coresPerSocket)
	}
	if net != nil && net.Nodes() < nodes {
		return nil, fmt.Errorf("topology: network reaches %d nodes, cluster needs %d", net.Nodes(), nodes)
	}
	return &Cluster{
		Nodes:          nodes,
		SocketsPerNode: socketsPerNode,
		CoresPerSocket: coresPerSocket,
		Net:            net,
	}, nil
}

// CoresPerNode returns the number of cores on each node.
func (c *Cluster) CoresPerNode() int { return c.SocketsPerNode * c.CoresPerSocket }

// TotalCores returns the number of cores in the whole cluster.
func (c *Cluster) TotalCores() int { return c.Nodes * c.CoresPerNode() }

// NodeOf returns the node hosting global core index core.
func (c *Cluster) NodeOf(core int) int { return core / c.CoresPerNode() }

// SocketOf returns the global socket index (node*SocketsPerNode + local
// socket) hosting global core index core.
func (c *Cluster) SocketOf(core int) int {
	node := c.NodeOf(core)
	local := core % c.CoresPerNode()
	return node*c.SocketsPerNode + local/c.CoresPerSocket
}

// CoreAt returns the global core index for the given node, socket-within-node
// and core-within-socket.
func (c *Cluster) CoreAt(node, socket, core int) int {
	return node*c.CoresPerNode() + socket*c.CoresPerSocket + core
}

// SameSocket reports whether two global core indices share a socket.
func (c *Cluster) SameSocket(a, b int) bool { return c.SocketOf(a) == c.SocketOf(b) }

// Validate checks internal consistency and returns a descriptive error when
// the cluster is malformed.
func (c *Cluster) Validate() error {
	if c.Nodes <= 0 || c.SocketsPerNode <= 0 || c.CoresPerSocket <= 0 {
		return fmt.Errorf("topology: invalid cluster shape %dx%dx%d", c.Nodes, c.SocketsPerNode, c.CoresPerSocket)
	}
	if c.Net != nil {
		if err := c.Net.Validate(); err != nil {
			return err
		}
		if c.Net.Nodes() < c.Nodes {
			return fmt.Errorf("topology: network covers %d nodes, cluster has %d", c.Net.Nodes(), c.Nodes)
		}
	}
	return nil
}

// String returns a short human-readable description of the cluster shape.
func (c *Cluster) String() string {
	net := "no-net"
	if c.Net != nil {
		net = c.Net.Label()
	}
	return fmt.Sprintf("cluster{%d nodes x %d sockets x %d cores, %s}",
		c.Nodes, c.SocketsPerNode, c.CoresPerSocket, net)
}

// GPC returns a model of the GPC cluster partition used in the paper's
// evaluation: 512 nodes of 2 quad-core sockets (4096 cores) under the
// fat-tree of paper Fig. 2.
//
// The real GPC has 3780 nodes; the experiments use the QDR-connected subset
// and at most 4096 processes, so 512 nodes (32 leaf switches x 16 nodes)
// suffice to host every experiment while preserving the network shape.
func GPC() *Cluster {
	c, err := NewCluster(512, 2, 4, GPCFatTree())
	if err != nil {
		panic("topology: internal error building GPC model: " + err.Error())
	}
	return c
}

// SingleNode returns a cluster with one node, for intra-node studies.
func SingleNode(socketsPerNode, coresPerSocket int) *Cluster {
	c, err := NewCluster(1, socketsPerNode, coresPerSocket, nil)
	if err != nil {
		panic("topology: internal error building single node: " + err.Error())
	}
	return c
}
