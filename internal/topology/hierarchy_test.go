package topology

import (
	"fmt"
	"testing"
)

// hierClusters are the hierarchical fixtures every equivalence check runs
// over: the paper's GPC machine, a small two-level fat-tree, and a cluster
// with no network model (uniform inter-node distance).
func hierClusters(t *testing.T) map[string]*Cluster {
	t.Helper()
	mk := func(nodes, sockets, cores int, net Network) *Cluster {
		c, err := NewCluster(nodes, sockets, cores, net)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		return c
	}
	return map[string]*Cluster{
		"gpc":      GPC(),
		"fattree":  mk(8, 2, 4, TwoLevelFatTree(2, 4, 2)),
		"nil-net":  mk(4, 2, 2, nil),
		"one-node": mk(1, 2, 4, nil),
	}
}

// TestHierarchyMatchesCoreDistance checks the compact oracle against
// CoreDistance entry for entry, over full machines, truncated prefixes, and
// fragmented allocations.
func TestHierarchyMatchesCoreDistance(t *testing.T) {
	for name, c := range hierClusters(t) {
		layouts := map[string][]int{}
		for _, k := range AllLayouts {
			p := c.TotalCores()
			if p > 128 {
				p = 128 // cap GPC so the dense reference stays cheap
			}
			layouts[k.String()] = MustLayout(c, p, k)
			layouts[k.String()+"/partial"] = MustLayout(c, p/2+1, k)
		}
		if c.Nodes >= 4 {
			// Fragmented allocation: a non-contiguous node subset.
			frag, err := LayoutOnNodes(c, 3*c.CoresPerNode(), CyclicBunch, []int{0, 2, 3})
			if err != nil {
				t.Fatalf("%s: LayoutOnNodes: %v", name, err)
			}
			layouts["fragmented"] = frag
		}
		for lname, cores := range layouts {
			h, err := NewHierarchy(c, cores)
			if err != nil {
				t.Fatalf("%s/%s: NewHierarchy: %v", name, lname, err)
			}
			if h.N() != len(cores) {
				t.Fatalf("%s/%s: N = %d, want %d", name, lname, h.N(), len(cores))
			}
			for i := range cores {
				for j := range cores {
					want := int32(c.CoreDistance(cores[i], cores[j]))
					if got := h.At(i, j); got != want {
						t.Fatalf("%s/%s: At(%d,%d) = %d, want %d", name, lname, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestHierarchyMemoryIsLinear pins the tentpole claim: the compact oracle
// for a p=4096 job stores O(p·levels) coordinates, not an O(p²) matrix.
func TestHierarchyMemoryIsLinear(t *testing.T) {
	c := GPC()
	cores := MustLayout(c, 4096, BlockBunch)
	h, err := NewHierarchy(c, cores)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	if got, limit := len(h.coords), 4096*h.Levels(); got > limit {
		t.Errorf("coords holds %d entries, want <= %d", got, limit)
	}
	if h.Levels() > maxInferLevels {
		t.Errorf("Levels = %d, want <= %d", h.Levels(), maxInferLevels)
	}
}

func TestNewHierarchyRejectsTorus(t *testing.T) {
	c, err := NewCluster(64, 2, 4, NewTorus3D(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierarchy(c, MustLayout(c, 64, BlockBunch)); err == nil {
		t.Fatal("NewHierarchy accepted a torus network")
	}
}

func TestInferHierarchyRoundTrip(t *testing.T) {
	for name, c := range hierClusters(t) {
		p := c.TotalCores()
		if p > 256 {
			p = 256
		}
		cores := MustLayout(c, p, CyclicScatter)
		d, err := NewDistances(c, cores)
		if err != nil {
			t.Fatalf("%s: NewDistances: %v", name, err)
		}
		h, err := InferHierarchy(d)
		if err != nil {
			t.Fatalf("%s: InferHierarchy: %v", name, err)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if h.At(i, j) != d.At(i, j) {
					t.Fatalf("%s: inferred At(%d,%d) = %d, want %d", name, i, j, h.At(i, j), d.At(i, j))
				}
			}
		}
	}
}

func TestInferHierarchyRejectsNonUltrametric(t *testing.T) {
	// A 4-node ring (4x1x1 torus) is the smallest non-ultrametric case: the
	// "distance <= one hop" relation chains all nodes together without being
	// transitive, which inference must detect.
	c, err := NewCluster(4, 1, 1, NewTorus3D(4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistances(c, MustLayout(c, 4, BlockBunch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferHierarchy(d); err == nil {
		t.Fatal("InferHierarchy accepted a 4-node torus ring")
	}
	if h := d.Hierarchy(); h != nil {
		t.Fatal("Distances.Hierarchy returned a view for a 4-node torus ring")
	}
}

func TestInferHierarchyAcceptsDegenerateTorus(t *testing.T) {
	// With only two nodes the torus metric is trivially hierarchical; the
	// matrix path should recover a usable view even though NewHierarchy
	// refuses the network type.
	c, err := NewCluster(2, 1, 2, NewTorus3D(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cores := MustLayout(c, 4, BlockBunch)
	if _, err := NewHierarchy(c, cores); err == nil {
		t.Fatal("NewHierarchy accepted a torus network type")
	}
	d, err := NewDistances(c, cores)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hierarchy() == nil {
		t.Fatal("Distances.Hierarchy found no view for a trivially hierarchical torus")
	}
}

// TestDistancesHierarchyAttached checks that matrices built by NewDistances
// on hierarchical clusters carry the compact view without an inference pass,
// and that persisted-style matrices (no cluster attached) infer it lazily.
func TestDistancesHierarchyAttached(t *testing.T) {
	c := GPC()
	cores := MustLayout(c, 64, BlockBunch)
	d, err := NewDistances(c, cores)
	if err != nil {
		t.Fatal(err)
	}
	h := d.Hierarchy()
	if h == nil {
		t.Fatal("no hierarchy attached by NewDistances on a fat-tree cluster")
	}
	// A matrix reconstructed from raw values (the persistence path) must
	// infer an equivalent view.
	raw := &Distances{Cores: d.Cores, D: d.D}
	hi := raw.Hierarchy()
	if hi == nil {
		t.Fatal("no hierarchy inferred from raw fat-tree matrix")
	}
	for i := 0; i < d.N(); i++ {
		for j := 0; j < d.N(); j++ {
			if h.At(i, j) != hi.At(i, j) {
				t.Fatalf("attached and inferred views disagree at (%d,%d)", i, j)
			}
		}
	}
}

// TestNewDistancesMatchesCoreDistance holds the node-pair hop-table fill to
// the reference arithmetic: every entry equals CoreDistance of the two
// cores (the fingerprint regression tests depend on it), and the compact
// view is attached at construction exactly when NewHierarchy can build one.
func TestNewDistancesMatchesCoreDistance(t *testing.T) {
	mk := func(nodes, sockets, cores int, net Network) *Cluster {
		c, err := NewCluster(nodes, sockets, cores, net)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		return c
	}
	type job struct {
		name  string
		c     *Cluster
		cores []int
	}
	var jobs []job
	gpc := GPC()
	for _, kind := range AllLayouts {
		jobs = append(jobs, job{"gpc/" + kind.String(), gpc, MustLayout(gpc, 4096, kind)})
	}
	// A fragmented allocation entered in the middle of the machine: every
	// third node from 200, wrapping, so dense node indices and node ids
	// disagree everywhere.
	var frag []int
	for i := 0; i < 128; i++ {
		frag = append(frag, (200+3*i)%gpc.Nodes)
	}
	fragLayout, err := LayoutOnNodes(gpc, 1024, CyclicScatter, frag)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job{"gpc/fragmented", gpc, fragLayout})

	for name, c := range map[string]*Cluster{
		"fattree-2x4":  mk(8, 2, 4, TwoLevelFatTree(2, 4, 2)),
		"fattree-8x16": mk(128, 2, 2, TwoLevelFatTree(8, 16, 4)),
		"torus-4x4x2":  mk(32, 2, 4, NewTorus3D(4, 4, 2)),
		"torus-8x8x1":  mk(64, 1, 1, NewTorus3D(8, 8, 1)),
		"uniform":      mk(4, 2, 2, nil),
	} {
		jobs = append(jobs, job{name, c, MustLayout(c, c.TotalCores(), CyclicBunch)})
	}
	jobs = append(jobs,
		job{"p=1", gpc, []int{37}},
		job{"single-node-job", gpc, MustLayout(gpc, 8, BlockScatter)},
		job{"unordered", gpc, []int{4095, 0, 9, 8, 2047, 15, 2048, 1}},
	)

	for _, jb := range jobs {
		d, err := NewDistances(jb.c, jb.cores)
		if err != nil {
			t.Fatalf("%s: %v", jb.name, err)
		}
		if err := parallelRows(len(jb.cores), func(i int) error {
			for j := range jb.cores {
				if want := int32(jb.c.CoreDistance(jb.cores[i], jb.cores[j])); d.At(i, j) != want {
					return fmt.Errorf("At(%d,%d) = %d, want %d", i, j, d.At(i, j), want)
				}
			}
			return nil
		}); err != nil {
			t.Errorf("%s: %v", jb.name, err)
		}
		_, herr := NewHierarchy(jb.c, jb.cores)
		if attached := d.hierDone && d.hier != nil; attached != (herr == nil) {
			t.Errorf("%s: hierarchy attached = %v, NewHierarchy error = %v", jb.name, attached, herr)
		}
	}
}

func BenchmarkNewDistances4096(b *testing.B) {
	c := GPC()
	cores := MustLayout(c, 4096, BlockBunch)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := NewDistances(c, cores); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewHierarchy4096(b *testing.B) {
	c := GPC()
	cores := MustLayout(c, 4096, BlockBunch)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := NewHierarchy(c, cores); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleNewHierarchy() {
	c := GPC()
	cores := MustLayout(c, 4096, BlockBunch)
	h, _ := NewHierarchy(c, cores)
	fmt.Println(h.N(), h.Levels() <= maxInferLevels)
	// Output:
	// 4096 true
}
