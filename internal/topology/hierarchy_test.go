package topology

import (
	"fmt"
	"runtime"
	"sync"
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

// TestHierarchyMemoryIsLinear pins the compact form: the oracle for a
// p=4096 job stores O(p·levels) coordinates and, on a torus, an m×m node
// table, never a p×p matrix. NewDistances allocates at most 1 MB on GPC and
// 2 MB on an 8×8×8 torus with 2×4 cores per node.
func TestHierarchyMemoryIsLinear(t *testing.T) {
	torus, err := NewCluster(512, 2, 4, NewTorus3D(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		c     *Cluster
		m     int // node table side, 0 for none
		limit uint64
	}{
		{"gpc", GPC(), 0, 1 << 20},
		{"torus-8x8x8", torus, 512, 2 << 20},
	} {
		cores := MustLayout(tc.c, 4096, BlockBunch)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := NewDistances(tc.c, cores)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: NewDistances: %v", tc.name, err)
		}
		if got, limit := len(d.coords), 4096*d.Levels(); got > limit {
			t.Errorf("%s: coords holds %d entries, want <= %d", tc.name, got, limit)
		}
		if d.Levels() > maxLevels {
			t.Errorf("%s: Levels = %d, want <= %d", tc.name, d.Levels(), maxLevels)
		}
		if len(d.table) != tc.m*tc.m {
			t.Errorf("%s: table holds %d entries, want %d", tc.name, len(d.table), tc.m*tc.m)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > tc.limit {
			t.Errorf("%s: NewDistances allocated %d bytes, want <= %d", tc.name, grew, tc.limit)
		}
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

// TestDistancesHierarchyAttached checks where the levels end: on
// hierarchical clusters they reach a single root and no node table exists;
// on a torus spread over several nodes they stop at the node level and the
// m×m table is attached; a torus job inside one node needs no table either.
func TestDistancesHierarchyAttached(t *testing.T) {
	torus, err := NewCluster(8, 2, 2, NewTorus3D(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		c      *Cluster
		cores  []int
		levels int
		m      int
	}{
		{"gpc", GPC(), MustLayout(GPC(), 64, BlockBunch), 3, 0}, // one leaf switch is the root
		{"torus", torus, MustLayout(torus, 32, CyclicBunch), 2, 8},
		{"torus/one-node", torus, MustLayout(torus, 4, BlockBunch), 2, 0},
		{"torus/one-socket", torus, MustLayout(torus, 2, BlockBunch), 1, 0},
	} {
		d, err := NewDistances(tc.c, tc.cores)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", tc.name, err)
		}
		if d.Levels() != tc.levels || len(d.table) != tc.m*tc.m {
			t.Errorf("%s: %d levels and %d table entries, want %d and %d", tc.name, d.Levels(), len(d.table), tc.levels, tc.m*tc.m)
		}
	}
}

// TestNewDistancesMatchesCoreDistance holds the node-pair hop-table fill to
// the reference arithmetic: every entry equals CoreDistance of the two
// cores (the fingerprint regression tests depend on it), every oracle
// validates, and a multi-node torus job is the only one that needs the node
// table.
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
		"torus-2x1x1":  mk(2, 1, 2, NewTorus3D(2, 1, 1)),
		"torus-4x1x1":  mk(4, 1, 1, NewTorus3D(4, 1, 1)),
		"torus-1x1x1":  mk(1, 2, 2, NewTorus3D(1, 1, 1)),
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
		if err := d.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", jb.name, err)
		}
		if err := forEachRow(len(jb.cores), func(i int) error {
			for j := range jb.cores {
				if want := int32(jb.c.CoreDistance(jb.cores[i], jb.cores[j])); d.At(i, j) != want {
					return fmt.Errorf("At(%d,%d) = %d, want %d", i, j, d.At(i, j), want)
				}
			}
			return nil
		}); err != nil {
			t.Errorf("%s: %v", jb.name, err)
		}
		nodes := map[int]bool{}
		for _, core := range jb.cores {
			nodes[jb.c.NodeOf(core)] = true
		}
		_, herr := NewHierarchy(jb.c, jb.cores)
		if wantTable := herr != nil && len(nodes) > 1; (d.table != nil) != wantTable {
			t.Errorf("%s: table attached = %v over %d nodes, NewHierarchy error = %v", jb.name, d.table != nil, len(nodes), herr)
		}
	}
}

func BenchmarkNewDistances4096(b *testing.B) {
	c := GPC()
	cores := MustLayout(c, 4096, BlockBunch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := NewDistances(c, cores); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewDistancesTorus4096(b *testing.B) {
	c, err := NewCluster(512, 2, 4, NewTorus3D(8, 8, 8))
	if err != nil {
		b.Fatal(err)
	}
	cores := MustLayout(c, 4096, BlockBunch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := NewDistances(c, cores); err != nil {
			b.Fatal(err)
		}
	}
}

// forEachRow runs fn(i) for every i in [0, n) across GOMAXPROCS workers and
// returns one of the errors observed.
func forEachRow(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					mu.Lock()
					first = err
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

func ExampleNewHierarchy() {
	c := GPC()
	cores := MustLayout(c, 4096, BlockBunch)
	h, _ := NewHierarchy(c, cores)
	fmt.Println(h.N(), h.Levels() <= maxLevels)
	// Output:
	// 4096 true
}
