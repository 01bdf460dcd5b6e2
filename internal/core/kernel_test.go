package core

import (
	"context"
	"fmt"
	"math/rand"
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

// equivalenceFixtures builds (cluster, layout) cases covering fat-tree,
// uniform, torus and fragmented allocations at assorted process counts.
func equivalenceFixtures(t testing.TB) map[string]struct {
	c     *topology.Cluster
	cores []int
} {
	t.Helper()
	out := map[string]struct {
		c     *topology.Cluster
		cores []int
	}{}
	add := func(name string, c *topology.Cluster, err error, cores []int) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = struct {
			c     *topology.Cluster
			cores []int
		}{c, cores}
	}
	ft := testCluster()
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16, 33, 64} {
		for _, k := range topology.AllLayouts {
			add(fmt.Sprintf("fattree/p%d/%s", p, k), ft, nil, topology.MustLayout(ft, p, k))
		}
	}
	uni, err := topology.NewCluster(4, 2, 2, nil)
	add("uniform/p16", uni, err, topology.MustLayout(uni, 16, topology.BlockBunch))
	torus, err := topology.NewCluster(27, 1, 2, topology.NewTorus3D(3, 3, 3))
	add("torus/p54", torus, err, topology.MustLayout(torus, 54, topology.CyclicBunch))
	frag, err := topology.LayoutOnNodes(ft, 24, topology.CyclicScatter, []int{0, 3, 4, 7})
	add("fattree/fragmented", ft, err, frag)
	return out
}

// TestKernelEquivalence is the satellite's core property: under
// deterministic tie-breaking the bucketed kernel must produce byte-identical
// mappings to the reference scan for every heuristic, every topology family,
// and every layout — and the compact Hierarchy oracle must agree with both
// wherever it exists.
func TestKernelEquivalence(t *testing.T) {
	for fname, fx := range equivalenceFixtures(t) {
		d, err := topology.NewDistances(fx.c, fx.cores)
		if err != nil {
			t.Fatalf("%s: NewDistances: %v", fname, err)
		}
		h, hierErr := topology.NewHierarchy(fx.c, fx.cores)
		for hname, heur := range oracleHeuristics {
			scan, err := heur(nil, d, &Options{kernel: kernelScan})
			if err != nil {
				t.Fatalf("%s/%s scan: %v", fname, hname, err)
			}
			if err := scan.Validate(); err != nil {
				t.Fatalf("%s/%s scan: %v", fname, hname, err)
			}
			auto, err := heur(nil, d, nil)
			if err != nil {
				t.Fatalf("%s/%s auto: %v", fname, hname, err)
			}
			if !equalMappings(scan, auto) {
				t.Errorf("%s/%s: auto kernel diverged from scan\nscan: %v\nauto: %v", fname, hname, scan, auto)
			}
			if d.Hierarchy() != nil {
				bucketed, err := heur(nil, d, &Options{kernel: kernelBucketed})
				if err != nil {
					t.Fatalf("%s/%s bucketed: %v", fname, hname, err)
				}
				if !equalMappings(scan, bucketed) {
					t.Errorf("%s/%s: bucketed kernel diverged from scan\nscan:     %v\nbucketed: %v", fname, hname, scan, bucketed)
				}
			}
			if hierErr == nil {
				compact, err := heur(nil, h, nil)
				if err != nil {
					t.Fatalf("%s/%s compact: %v", fname, hname, err)
				}
				if !equalMappings(scan, compact) {
					t.Errorf("%s/%s: compact oracle diverged from scan\nscan:    %v\ncompact: %v", fname, hname, scan, compact)
				}
			}
		}
	}
}

func equalMappings(a, b Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelBucketedRejectsTorus: forcing the bucketed kernel on a
// non-hierarchical metric must fail rather than silently mis-rank slots.
func TestKernelBucketedRejectsTorus(t *testing.T) {
	c, err := topology.NewCluster(64, 1, 1, topology.NewTorus3D(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := topology.NewDistances(c, topology.MustLayout(c, 64, topology.BlockBunch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RMH(d, &Options{kernel: kernelBucketed}); err == nil {
		t.Fatal("bucketed kernel accepted a torus matrix")
	}
	// Auto must fall back to the scan kernel and still succeed.
	if _, err := RMH(d, nil); err != nil {
		t.Fatalf("auto kernel on torus: %v", err)
	}
}

// TestKernelRandomTiesStayUniformlyValid: with a Rand the kernels consume
// the random stream differently, so mappings need not match bit for bit —
// but both must remain valid permutations over the same tie sets.
func TestKernelRandomTiesStayUniformlyValid(t *testing.T) {
	c := testCluster()
	d := distancesFor(t, c, 32, topology.CyclicBunch)
	for hname, heur := range oracleHeuristics {
		for seed := int64(0); seed < 4; seed++ {
			for _, mode := range []kernelMode{kernelScan, kernelBucketed} {
				m, err := heur(nil, d, &Options{Rand: rand.New(rand.NewSource(seed)), kernel: mode})
				if err != nil {
					t.Fatalf("%s/%v seed %d: %v", hname, mode, seed, err)
				}
				if err := m.Validate(); err != nil {
					t.Errorf("%s/%v seed %d: %v", hname, mode, seed, err)
				}
			}
		}
	}
}

// TestKernelScannedAccounting pins the work-accounting semantics: both
// kernels report find-closest work through the same mapper counter, the scan
// kernel's count equals the sum of free-list lengths it visited, and the
// bucketed kernel — doing strictly less work — reports a positive count no
// larger than the scan's.
func TestKernelScannedAccounting(t *testing.T) {
	c := testCluster()
	d := distancesFor(t, c, 64, topology.BlockBunch)
	scannedOf := func(mode kernelMode) int64 {
		mp, err := newMapper(d, &Options{kernel: mode})
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
	scan := scannedOf(kernelScan)
	bucketed := scannedOf(kernelBucketed)
	// The ring places p-1 ranks over free lists of length p-1, p-2, ..., 1.
	p := int64(d.N())
	if want := p * (p - 1) / 2; scan != want {
		t.Errorf("scan kernel counted %d evaluations, want %d", scan, want)
	}
	if bucketed <= 0 || bucketed > scan {
		t.Errorf("bucketed kernel counted %d evaluations, want in (0, %d]", bucketed, scan)
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
