package topology

import (
	"math/rand"
	"testing"
)

// refClusterFingerprint is the route hash Cluster.Fingerprint computed
// before it hashed parameters, kept as the reference the property test
// compares against: the shape plus the network's label and every directed
// node-pair route, link by link, with the kind, endpoints, direction and
// cable multiplicity of each link crossed. It costs O(m²·hops).
func refClusterFingerprint(c *Cluster) uint64 {
	f := newFingerprintHash("topology.Cluster")
	f.writeInt(int64(c.Nodes))
	f.writeInt(int64(c.SocketsPerNode))
	f.writeInt(int64(c.CoresPerSocket))
	if c.Net == nil {
		f.writeString("no-net")
		return f.sum.Sum64()
	}
	f.writeString(c.Net.Label())
	n := c.Net.Nodes()
	f.writeInt(int64(n))
	var route []DirLink
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			route = c.Net.RouteDir(route[:0], src, dst)
			f.writeInt(int64(len(route)))
			for _, dl := range route {
				f.writeInt(int64(dl.Link.Kind))
				f.writeInt(int64(dl.Link.A))
				f.writeInt(int64(dl.Link.B))
				if dl.Forward {
					f.writeInt(1)
				} else {
					f.writeInt(0)
				}
				f.writeInt(int64(c.Net.Multiplicity(dl.Link)))
			}
		}
	}
	return f.sum.Sum64()
}

// writeInt is the one-integer write the reference body was written against.
func (f *fingerprintHash) writeInt(v int64) { f.writeInts(int(v)) }

// generatedNetworks returns seeded random fat-trees and tori, each followed
// by its one-field mutants — every FatTree field, each torus dim and the
// link multiplicity stepped by one (the name primed) — so that for every
// parameter the set holds pairs that differ in it alone.
func generatedNetworks() []Network {
	rng := rand.New(rand.NewSource(1))
	var nets []Network
	names := []string{"ft-a", "ft-b"}
	for i := 0; i < 64; i++ {
		base := FatTree{
			Name:         names[rng.Intn(2)],
			Leaves:       1 + rng.Intn(6),
			NodesPerLeaf: 1 + rng.Intn(3),
			Enclosures:   1 + rng.Intn(3),
			LinesPerEnc:  1 + rng.Intn(4),
			SpinesPerEnc: 1 + rng.Intn(3),
			LeafUplinks:  1 + rng.Intn(3),
			LineUplinks:  1 + rng.Intn(3),
		}
		base.LeavesPerLine = (base.Leaves+base.LinesPerEnc-1)/base.LinesPerEnc + rng.Intn(2)
		mutants := []func(*FatTree){
			func(*FatTree) {},
			func(f *FatTree) { f.Name += "'" },
			func(f *FatTree) { f.Leaves++ },
			func(f *FatTree) { f.NodesPerLeaf++ },
			func(f *FatTree) { f.Enclosures++ },
			func(f *FatTree) { f.LinesPerEnc++ },
			func(f *FatTree) { f.SpinesPerEnc++ },
			func(f *FatTree) { f.LeavesPerLine++ },
			func(f *FatTree) { f.LeafUplinks++ },
			func(f *FatTree) { f.LineUplinks++ },
		}
		for _, mutate := range mutants {
			ft := base
			mutate(&ft)
			if ft.Validate() == nil {
				nets = append(nets, &ft)
			}
		}
	}
	for i := 0; i < 48; i++ {
		base := Torus3D{X: 1 + rng.Intn(3), Y: 1 + rng.Intn(3), Z: 1 + rng.Intn(3), LinkMult: rng.Intn(4)}
		for _, mutate := range []func(*Torus3D){
			func(*Torus3D) {},
			func(t *Torus3D) { t.X++ },
			func(t *Torus3D) { t.Y++ },
			func(t *Torus3D) { t.Z++ },
			func(t *Torus3D) { t.LinkMult++ },
		} {
			tor := base
			mutate(&tor)
			nets = append(nets, &tor)
		}
	}
	return nets
}

// TestFingerprintMatchesRouteHash: over generated fat-trees and tori, no two
// networks share a fingerprint while their reference route hashes differ, so
// keying a cluster by its parameters never merges two wirings the route walk
// told apart. The converse is allowed and counted: parameter sets that route
// alike (a one-leaf tree's uplinks, a lone node's torus links, ...) key apart,
// each one extra cache miss and never a wrong answer.
func TestFingerprintMatchesRouteHash(t *testing.T) {
	nets := generatedNetworks()
	if len(nets) < 500 {
		t.Fatalf("generated %d networks, want at least 500", len(nets))
	}
	refOf := map[uint64]uint64{}           // fingerprint -> reference hash
	keysOf := map[uint64]map[uint64]bool{} // reference hash -> fingerprints
	violations := 0
	for _, net := range nets {
		c, err := NewCluster(net.Nodes(), 1, 2, net)
		if err != nil {
			t.Fatal(err)
		}
		fp, ref := c.Fingerprint(), refClusterFingerprint(c)
		if prev, seen := refOf[fp]; !seen {
			refOf[fp] = ref
		} else if prev != ref {
			if violations++; violations <= 3 {
				t.Errorf("%s %+v: fingerprint %#x is shared by a network that routes differently", net.Label(), net, fp)
			}
		}
		if keysOf[ref] == nil {
			keysOf[ref] = map[uint64]bool{}
		}
		keysOf[ref][fp] = true
	}
	apart := 0
	for _, fps := range keysOf {
		apart += len(fps) - 1
	}
	t.Logf("%d networks, %d fingerprints, %d route hashes: %d networks told apart from an equally routed one, %d violations",
		len(nets), len(refOf), len(keysOf), apart, violations)
	if violations > 0 {
		t.Errorf("%d networks share a fingerprint with a differently routed one", violations)
	}
}

// fingerprintSink keeps the benchmarked call from being optimised away.
var fingerprintSink uint64

// BenchmarkClusterFingerprint times the cache key of GPC and of an 8×8×8
// torus, the two clusters whose route hash cost 125 and 155 ms.
func BenchmarkClusterFingerprint(b *testing.B) {
	torus, err := NewCluster(512, 1, 1, NewTorus3D(8, 8, 8))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		c    *Cluster
	}{{"gpc", GPC()}, {"torus-8x8x8", torus}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fingerprintSink = bc.c.Fingerprint()
			}
		})
	}
}
