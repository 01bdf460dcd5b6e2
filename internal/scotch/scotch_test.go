package scotch

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/patterns"
	"repro/internal/topology"
)

func hostFor(t testing.TB, c *topology.Cluster, p int, k topology.LayoutKind) *topology.Distances {
	t.Helper()
	layout, err := topology.Layout(c, p, k)
	if err != nil {
		t.Fatal(err)
	}
	d, err := topology.NewDistances(c, layout)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testCluster() *topology.Cluster {
	c, err := topology.NewCluster(8, 2, 4, topology.TwoLevelFatTree(2, 4, 2))
	if err != nil {
		panic(err)
	}
	return c
}

func TestMapIsPermutation(t *testing.T) {
	c := testCluster()
	for _, pat := range core.Patterns {
		for _, p := range []int{1, 2, 3, 8, 16, 24, 64} {
			g, err := patterns.Build(pat, p)
			if err != nil {
				t.Fatal(err)
			}
			d := hostFor(t, c, p, topology.CyclicBunch)
			m, err := Map(g, d, nil)
			if err != nil {
				t.Fatalf("Map(%v, p=%d): %v", pat, p, err)
			}
			if err := m.Validate(); err != nil {
				t.Errorf("Map(%v, p=%d): %v", pat, p, err)
			}
		}
	}
}

func TestMapErrors(t *testing.T) {
	c := testCluster()
	d := hostFor(t, c, 8, topology.BlockBunch)
	if _, err := Map(nil, d, nil); err == nil {
		t.Error("accepted nil guest")
	}
	g := graph.New(4)
	if _, err := Map(g, d, nil); err == nil {
		t.Error("accepted size mismatch")
	}
	if _, err := Map(graph.New(0), nil, nil); err == nil {
		t.Error("accepted nil host")
	}
}

func TestMapGroupsRingNeighbours(t *testing.T) {
	// Under a cyclic layout the ring pattern should be repaired: a general
	// mapper must keep most ring edges inside nodes.
	c := testCluster()
	p := 64
	g, err := patterns.Build(core.Ring, p)
	if err != nil {
		t.Fatal(err)
	}
	d := hostFor(t, c, p, topology.CyclicBunch)
	m, err := Map(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after int64
	for r := 0; r < p; r++ {
		before += int64(d.At(r, (r+1)%p))
		after += int64(d.At(m[r], m[(r+1)%p]))
	}
	if after >= before {
		t.Errorf("scotch did not improve ring cost: %d -> %d", before, after)
	}
}

func TestMapKeepsHeavyRDEdgesClose(t *testing.T) {
	// The heaviest recursive-doubling edges (last stage) should end up at
	// smaller average distance than under the initial block layout.
	c := testCluster()
	p := 64
	g, err := patterns.Build(core.RecursiveDoubling, p)
	if err != nil {
		t.Fatal(err)
	}
	d := hostFor(t, c, p, topology.BlockBunch)
	m, err := Map(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after int64
	for i := 0; i < p; i++ {
		j := i ^ (p / 2)
		if i < j {
			before += int64(d.At(i, j))
			after += int64(d.At(m[i], m[j]))
		}
	}
	if after > before {
		t.Errorf("last-stage distance grew: %d -> %d", before, after)
	}
}

func TestBisectHostRespectsHierarchy(t *testing.T) {
	// Splitting the slots of one node must separate the two sockets.
	c := topology.SingleNode(2, 4)
	d := hostFor(t, c, 8, topology.BlockBunch)
	slots := []int{0, 1, 2, 3, 4, 5, 6, 7}
	a, b := bisectHost(d, slots)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("sizes %d,%d", len(a), len(b))
	}
	sock := func(set []int) int { return c.SocketOf(d.Cores[set[0]]) }
	for _, s := range a {
		if c.SocketOf(d.Cores[s]) != sock(a) {
			t.Errorf("half A mixes sockets: %v", a)
		}
	}
	for _, s := range b {
		if c.SocketOf(d.Cores[s]) != sock(b) {
			t.Errorf("half B mixes sockets: %v", b)
		}
	}
}

func TestBisectHostOddSize(t *testing.T) {
	c := topology.SingleNode(2, 4)
	d := hostFor(t, c, 7, topology.BlockBunch)
	a, b := bisectHost(d, []int{0, 1, 2, 3, 4, 5, 6})
	if len(a) != 4 || len(b) != 3 {
		t.Errorf("odd split sizes %d,%d", len(a), len(b))
	}
}

func TestFarthestFrom(t *testing.T) {
	c := testCluster()
	d := hostFor(t, c, 64, topology.BlockBunch)
	far := farthestFrom(d, []int{0, 1, 2, 63}, 0)
	if far != 63 {
		t.Errorf("farthestFrom = %d, want 63", far)
	}
	if got := farthestFrom(d, []int{5}, 5); got != 5 {
		t.Errorf("singleton farthest = %d, want 5", got)
	}
}

func TestMapDeterministic(t *testing.T) {
	c := testCluster()
	p := 32
	g, _ := patterns.Build(core.BinomialGather, p)
	d := hostFor(t, c, p, topology.BlockScatter)
	m1, err := Map(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Map(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("non-deterministic mapping at rank %d", i)
		}
	}
}

// TestMapConcurrentOnOneGraph maps one guest graph from several goroutines
// at once, as mapd's auto race and concurrent requests do: each Map owns
// its bisection scratch, so the results equal a lone Map's (run with -race).
func TestMapConcurrentOnOneGraph(t *testing.T) {
	c := testCluster()
	g, err := patterns.Build(core.RecursiveDoubling, 64)
	if err != nil {
		t.Fatal(err)
	}
	d := hostFor(t, c, 64, topology.CyclicScatter)
	want, err := Map(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got, err := Map(g, d, nil); err != nil || !slices.Equal(got, want) {
					t.Errorf("concurrent Map = %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
