package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// oracleHeuristics names every kernel-consuming mapping entry point,
// including the BBMH traversal variants, for equivalence sweeps.
var oracleHeuristics = map[string]OracleHeuristic{
	"rdmh": RDMHOracle,
	"rmh":  RMHOracle,
	"bbmh": BBMHOracle,
	"bgmh": BGMHOracle,
	"bkmh": BKMHOracle,
	"bbmh-larger": func(ctx context.Context, o topology.Oracle, opts *Options) (Mapping, error) {
		return BBMHWithTraversalOracle(ctx, o, opts, LargerSubtreeFirst)
	},
	"bbmh-bfs": func(ctx context.Context, o topology.Oracle, opts *Options) (Mapping, error) {
		return BBMHWithTraversalOracle(ctx, o, opts, BreadthFirst)
	},
}

// kernelFixture is one (cluster, layout) case of the kernel suites.
type kernelFixture struct {
	c     *topology.Cluster
	cores []int
}

// equivalenceFixtures builds (cluster, layout) cases covering fat-tree,
// uniform and torus networks, full and partial process counts, every
// layout, and fragmented allocations. The tori exercise the node-table step:
// 1×1, 2×2 and 1×2 sockets × cores per node, a two-node 2×1×1 torus, and a
// torus job inside a single node.
func equivalenceFixtures(t testing.TB) map[string]kernelFixture {
	t.Helper()
	out := map[string]kernelFixture{}
	add := func(name string, c *topology.Cluster, err error, cores []int) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = kernelFixture{c, cores}
	}
	ft := testCluster()
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16, 33, 64} {
		for _, k := range topology.AllLayouts {
			add(fmt.Sprintf("fattree/p%d/%s", p, k), ft, nil, topology.MustLayout(ft, p, k))
		}
	}
	uni, err := topology.NewCluster(4, 2, 2, nil)
	add("uniform/p16", uni, err, topology.MustLayout(uni, 16, topology.BlockBunch))
	frag, err := topology.LayoutOnNodes(ft, 24, topology.CyclicScatter, []int{0, 3, 4, 7})
	add("fattree/fragmented", ft, err, frag)

	for _, tc := range []struct {
		name          string
		dims          [3]int
		sockets, cpus int
	}{
		{"torus-3x3x3/1x1", [3]int{3, 3, 3}, 1, 1},
		{"torus-3x3x3/1x2", [3]int{3, 3, 3}, 1, 2},
		{"torus-4x2x2/2x2", [3]int{4, 2, 2}, 2, 2},
		{"torus-2x1x1/2x2", [3]int{2, 1, 1}, 2, 2},
		{"torus-1x1x1/2x2", [3]int{1, 1, 1}, 2, 2},
	} {
		nodes := tc.dims[0] * tc.dims[1] * tc.dims[2]
		c, err := topology.NewCluster(nodes, tc.sockets, tc.cpus, topology.NewTorus3D(tc.dims[0], tc.dims[1], tc.dims[2]))
		if err != nil {
			t.Fatal(err)
		}
		total := c.TotalCores()
		for _, p := range []int{total, total/2 + 1, 3} {
			for _, k := range topology.AllLayouts {
				add(fmt.Sprintf("%s/p%d/%s", tc.name, p, k), c, nil, topology.MustLayout(c, p, k))
			}
		}
		if nodes >= 8 {
			// A fragmented allocation: every third node, entered mid-torus.
			var picked []int
			for n := 5; len(picked) < nodes/3; n = (n + 3) % nodes {
				picked = append(picked, n)
			}
			frag, err := topology.LayoutOnNodes(c, len(picked)*c.CoresPerNode()-1, topology.CyclicScatter, picked)
			add(tc.name+"/fragmented", c, err, frag)
		}
	}
	return out
}

// TestKernelEquivalence: under deterministic tie-breaking the production
// kernel must produce byte-identical mappings to the reference scan for
// every heuristic, every network family (tori included), and every layout.
func TestKernelEquivalence(t *testing.T) {
	for fname, fx := range equivalenceFixtures(t) {
		d, err := topology.NewDistances(fx.c, fx.cores)
		if err != nil {
			t.Fatalf("%s: NewDistances: %v", fname, err)
		}
		for hname, heur := range oracleHeuristics {
			scan, err := heur(nil, d, scanOpts)
			if err != nil {
				t.Fatalf("%s/%s scan: %v", fname, hname, err)
			}
			if err := scan.Validate(); err != nil {
				t.Fatalf("%s/%s scan: %v", fname, hname, err)
			}
			got, err := heur(nil, d, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", fname, hname, err)
			}
			if !slices.Equal(scan, got) {
				t.Errorf("%s/%s: kernel diverged from scan\nscan:   %v\nkernel: %v", fname, hname, scan, got)
			}
		}
	}
}

// kernelClusters are the two network families of the randomized and
// accounting checks: a two-level fat-tree, and a torus whose placements
// cross nodes through the node table.
func kernelClusters(t *testing.T) map[string]*topology.Cluster {
	torus, err := topology.NewCluster(16, 2, 2, topology.NewTorus3D(4, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Cluster{"fattree": testCluster(), "torus": torus}
}

// TestKernelRandomTiesStayUniformlyValid: with a Rand the kernels consume
// the random stream differently, so mappings need not match bit for bit —
// but both must remain valid permutations, and every placement must land in
// the tie set: at the minimum distance from its reference over the free
// slots.
func TestKernelRandomTiesStayUniformlyValid(t *testing.T) {
	for cname, c := range kernelClusters(t) {
		d := distancesFor(t, c, 32, topology.CyclicBunch)
		for seed := int64(0); seed < 4; seed++ {
			mp, err := newMapper(d, &Options{Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				t.Fatal(err)
			}
			free := make([]bool, d.N())
			for s := 1; s < d.N(); s++ {
				free[s] = true
			}
			// Step the references through the slots so placements cross
			// sockets, nodes and, on the torus, the node table.
			for r := 1; mp.left > 0; r++ {
				ref := (r*13 + 5) % r
				want := int32(-1)
				for s, ok := range free {
					if ok && (want < 0 || d.At(mp.m[ref], s) < want) {
						want = d.At(mp.m[ref], s)
					}
				}
				mp.placeNear(r, ref)
				if got := d.At(mp.m[ref], mp.m[r]); got != want {
					t.Fatalf("%s seed %d: rank %d placed at distance %d from its reference, minimum %d", cname, seed, r, got, want)
				}
				free[mp.m[r]] = false
			}
		}
		for hname, heur := range oracleHeuristics {
			for seed := int64(0); seed < 4; seed++ {
				for kname, opts := range map[string]*Options{"scan": scanOpts, "kernel": nil} {
					o := &Options{Rand: rand.New(rand.NewSource(seed))}
					if opts != nil {
						o.newKernel = opts.newKernel
					}
					m, err := heur(nil, d, o)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d: %v", cname, hname, kname, seed, err)
					}
					if err := m.Validate(); err != nil {
						t.Errorf("%s/%s/%s seed %d: %v", cname, hname, kname, seed, err)
					}
				}
			}
		}
	}
}

// TestKernelScannedAccounting pins the work-accounting semantics: both
// kernels report find-closest work through the same mapper counter, the scan
// kernel's count equals the sum of free-list lengths it visited, and the
// production kernel — doing strictly less work — reports a positive count no
// larger than the scan's.
func TestKernelScannedAccounting(t *testing.T) {
	for cname, c := range kernelClusters(t) {
		d := distancesFor(t, c, 64, topology.BlockBunch)
		scannedOf := func(opts *Options) int64 {
			mp, err := newMapper(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			p := d.N()
			ref := 0
			for mp.left > 0 {
				next := (ref + 1) % p
				mp.placeNear(next, ref)
				ref = next
			}
			return mp.scanned
		}
		scan := scannedOf(scanOpts)
		got := scannedOf(nil)
		// The ring places p-1 ranks over free lists of length p-1, p-2, ..., 1.
		p := int64(d.N())
		if want := p * (p - 1) / 2; scan != want {
			t.Errorf("%s: scan kernel counted %d evaluations, want %d", cname, scan, want)
		}
		if got <= 0 || got > scan {
			t.Errorf("%s: kernel counted %d evaluations, want in (0, %d]", cname, got, scan)
		}
	}
}

// TestMaskFrontierMatchesRescan cross-checks the lazy-heap restart frontier
// against the original full rescan on randomized mapped sets.
func TestMaskFrontierMatchesRescan(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := 2 + rnd.Intn(70)
		partner := func(r, mask int) int {
			if pr := r ^ mask; pr < p {
				return pr
			}
			return -1
		}
		if trial%2 == 1 { // alternate with the BKMH stride pairing
			partner = func(r, mask int) int { return (r + mask) % p }
		}
		mapped := make([]bool, p)
		mapped[0] = true
		fr := newMaskFrontier(prevPow2(p), partner)
		isMapped := func(r int) bool { return mapped[r] }
		fr.push(0, isMapped)
		order := rnd.Perm(p)
		for _, r := range order {
			if mapped[r] {
				continue
			}
			mapped[r] = true
			fr.push(r, isMapped)
			if allMapped(mapped) {
				break
			}
			// Reference rescan: largest mask, then smallest mapped rank
			// with an unmapped partner.
			wantRef, wantMask := -1, 0
			for i := prevPow2(p); i > 0 && wantRef < 0; i >>= 1 {
				for q := 0; q < p; q++ {
					if pr := partner(q, i); mapped[q] && pr >= 0 && !mapped[pr] {
						wantRef, wantMask = q, i
						break
					}
				}
			}
			if wantRef < 0 {
				continue // no usable restart reference in this state
			}
			gotRef, gotMask := fr.next(isMapped)
			if gotRef != wantRef || gotMask != wantMask {
				t.Fatalf("trial %d p=%d: frontier picked (%d,%d), rescan picked (%d,%d)",
					trial, p, gotRef, gotMask, wantRef, wantMask)
			}
		}
	}
}

func allMapped(m []bool) bool {
	for _, v := range m {
		if !v {
			return false
		}
	}
	return true
}
