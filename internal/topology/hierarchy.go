package topology

import "fmt"

// HierLevel describes one nested node grouping of a hierarchical network:
// two distinct nodes whose finest shared group sits at this level exchange
// messages over Hops links.
type HierLevel struct {
	// Hops is the hop count between distinct nodes whose finest common
	// group is this level.
	Hops int
	// GroupOf returns the group id of a node at this level.
	GroupOf func(node int) int
}

// HierarchicalNetwork is implemented by networks whose hop counts follow a
// nested grouping of nodes, so that Distances needs no node table above the
// node level. Implementations must return levels in ascending hop order,
// with nested groupings (every group at one level contained in a group of
// the next), a single all-node group at the last level, and Hops(a, b)
// equal to the Hops of the finest level where a and b share a group.
// Fat-trees qualify; tori (whose ring distances are not ultrametric) do not.
type HierarchicalNetwork interface {
	Network
	HierLevels() []HierLevel
}

var _ HierarchicalNetwork = (*FatTree)(nil)

// HierLevels implements HierarchicalNetwork for the fat-tree: nodes group
// by leaf switch (2 hops), by line switch (4 hops) and finally by the whole
// network (6 hops, via a spine bounce). The line grouping is independent of
// the enclosure chosen by routing, so the levels are exact for every
// enclosure count.
func (f *FatTree) HierLevels() []HierLevel {
	return []HierLevel{
		{Hops: 2, GroupOf: f.LeafOf},
		{Hops: 4, GroupOf: func(node int) int { return f.LineOf(f.LeafOf(node)) }},
		{Hops: 6, GroupOf: func(int) int { return 0 }},
	}
}

// NewHierarchy is NewDistances restricted to hierarchical interconnects
// (nil networks and HierarchicalNetwork implementations), whose oracle is
// levels alone, with no node table. It fails on any other network.
func NewHierarchy(c *Cluster, cores []int) (*Distances, error) {
	if _, ok := c.Net.(HierarchicalNetwork); c.Net != nil && !ok {
		return nil, fmt.Errorf("topology: network %q is not hierarchical", c.Net.Label())
	}
	return NewDistances(c, cores)
}
