package topology

// DirLink is a link together with the direction a particular message
// traverses it: Forward means A-to-B in the link's canonical orientation.
// The congestion model accounts load per direction of each full-duplex
// link.
type DirLink struct {
	Link    Link
	Forward bool
}

// Network abstracts the inter-node interconnect of a cluster. The library
// ships two implementations — the multi-level FatTree of the paper's
// testbed and a Torus3D (the other topology class studied by the related
// work the paper builds on, e.g. Sack & Gropp's torus collectives). They
// are the only two: a network's key is its parameters (writeParams).
type Network interface {
	// Label names the network for display.
	Label() string
	// Nodes returns the number of attachable compute nodes.
	Nodes() int
	// Validate reports structural problems.
	Validate() error
	// Hops returns the number of links a message between two distinct
	// nodes crosses.
	Hops(src, dst int) int
	// MaxHops returns the largest possible hop count.
	MaxHops() int
	// RouteDir appends the directed links crossed by a message from node
	// src to node dst and returns the extended slice. Routing must be
	// deterministic. Routes need not be symmetric (dimension-order torus
	// routing is not, for pairs differing in several axes); the congestion
	// model accounts load per link direction actually traversed.
	RouteDir(buf []DirLink, src, dst int) []DirLink
	// Multiplicity returns the number of parallel cables aggregated in a
	// link of this network.
	Multiplicity(l Link) int
	// writeParams hashes every parameter Label, Nodes, RouteDir and
	// Multiplicity read: Cluster.Fingerprint's network part.
	writeParams(f *fingerprintHash)
}

// Compile-time conformance checks.
var (
	_ Network = (*FatTree)(nil)
	_ Network = (*Torus3D)(nil)
)

// Label implements Network.
func (f *FatTree) Label() string { return f.Name }

// RouteDir implements Network for the fat-tree: the first half of a route
// ascends toward the spine (Forward), the second half descends. The links
// are routed into a stack array (the longest route is node-leaf-line-spine-
// line-leaf-node, six links), so with room in buf the call does not allocate.
func (f *FatTree) RouteDir(buf []DirLink, src, dst int) []DirLink {
	var route [6]Link
	links := f.Route(route[:0], src, dst)
	srcLeaf, dstLeaf := f.LeafOf(src), f.LeafOf(dst)
	for _, l := range links {
		fwd := true
		switch l.Kind {
		case LinkNodeLeaf:
			fwd = l.A == src // ascending from the source node
		case LinkLeafLine:
			fwd = l.A == srcLeaf
		case LinkLineSpine:
			enc := (srcLeaf + dstLeaf) % f.Enclosures
			srcLine := enc*f.LinesPerEnc + f.LineOf(srcLeaf)
			fwd = l.A == srcLine
		}
		buf = append(buf, DirLink{Link: l, Forward: fwd})
	}
	return buf
}
