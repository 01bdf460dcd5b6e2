package topology

import (
	"encoding/binary"
	"hash/fnv"
	"io"
)

// A cluster's fingerprint is a stable content hash that higher layers (the
// mapd service cache, synth tables) use as a canonical cache key. Two
// structurally identical clusters hash equal regardless of how they were
// constructed; any change to the shape or the interconnect wiring changes
// the hash. The values are covered by golden regression tests — changing
// the scheme invalidates every content-addressed cache built on it.

// fingerprintHash wraps an FNV-1a 64 hash with fixed-width integer writes.
type fingerprintHash struct {
	h   io.Writer
	sum interface{ Sum64() uint64 }
	buf [8]byte
}

func newFingerprintHash(domain string) *fingerprintHash {
	h := fnv.New64a()
	io.WriteString(h, domain)
	h.Write([]byte{0})
	return &fingerprintHash{h: h, sum: h}
}

func (f *fingerprintHash) writeInts(vs ...int) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.buf[:], uint64(v))
		f.h.Write(f.buf[:])
	}
}

func (f *fingerprintHash) writeString(s string) {
	io.WriteString(f.h, s)
	f.h.Write([]byte{0})
}

// Fingerprint returns a stable hash of the cluster's structure: the
// node/socket/core shape plus, when an interconnect is attached, the
// parameters its routing and cable multiplicities are pure functions of.
// Two clusters whose routed wiring differs — a route, a link, a direction or
// a trunk — hash apart, which the congestion model cares about; nothing is
// routed to say so. Two parameter sets that happen to route alike may hash
// apart too: that costs a cache miss, never a wrong answer.
func (c *Cluster) Fingerprint() uint64 {
	f := newFingerprintHash("topology.Cluster/params")
	f.writeInts(c.Nodes, c.SocketsPerNode, c.CoresPerSocket)
	if c.Net == nil {
		f.writeString("no-net")
	} else {
		c.Net.writeParams(f)
	}
	return f.sum.Sum64()
}

// writeParams hashes what FatTree's Label, Nodes, RouteDir and Multiplicity
// read.
func (ft *FatTree) writeParams(f *fingerprintHash) {
	f.writeString("fattree")
	f.writeString(ft.Name)
	f.writeInts(ft.Leaves, ft.NodesPerLeaf, ft.Enclosures, ft.LinesPerEnc, ft.SpinesPerEnc,
		ft.LeavesPerLine, ft.LeafUplinks, ft.LineUplinks)
}

// writeParams hashes what Torus3D's Label, Nodes, RouteDir and Multiplicity
// read: the dims, and the link multiplicity as Multiplicity reads it.
func (t *Torus3D) writeParams(f *fingerprintHash) {
	f.writeString("torus")
	f.writeInts(t.X, t.Y, t.Z, t.Multiplicity(Link{}))
}
