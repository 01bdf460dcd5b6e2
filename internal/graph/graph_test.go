package graph

import (
	"testing"
	"testing/quick"
)

func ring(n int, w int64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n, w); err != nil {
			panic(err)
		}
	}
	return g
}

func TestAddEdgeAccumulates(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 3); err != nil {
		t.Fatal(err)
	}
	if got := g.WeightedDegree(0); got != 5 {
		t.Errorf("WeightedDegree(0) = %d, want 5", got)
	}
	if got := len(g.Neighbors(0)); got != 1 {
		t.Errorf("vertex 0 has %d neighbours, want 1", got)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 2, 1); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := g.AddEdge(-1, 1, 1); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestNewNegative(t *testing.T) {
	if g := New(-3); g.N() != 0 {
		t.Errorf("New(-3).N() = %d", g.N())
	}
}

func TestEdgesAndTotalWeight(t *testing.T) {
	g := ring(4, 2)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("Edges() returned %d edges, want 4", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		prev, cur := edges[i-1], edges[i]
		if cur.U < prev.U || (cur.U == prev.U && cur.V <= prev.V) {
			t.Error("Edges() not sorted")
		}
	}
	if got := g.TotalWeight(); got != 8 {
		t.Errorf("TotalWeight = %d, want 8", got)
	}
}

func TestCutWeight(t *testing.T) {
	g := ring(6, 1)
	verts := []int{0, 1, 2, 3, 4, 5}
	// Split {0,1,2} vs {3,4,5}: edges (2,3) and (5,0) cross.
	cut := g.CutWeight(verts, func(v int) bool { return v < 3 })
	if cut != 2 {
		t.Errorf("CutWeight = %d, want 2", cut)
	}
	// Restricting to a sub-range ignores outside edges.
	cut = g.CutWeight([]int{0, 1, 2}, func(v int) bool { return v < 2 })
	if cut != 1 {
		t.Errorf("restricted CutWeight = %d, want 1", cut)
	}
}

func TestBisectRingFindsMinimalCut(t *testing.T) {
	g := ring(16, 1)
	verts := make([]int, 16)
	for i := range verts {
		verts[i] = i
	}
	a, b := NewBisector(g).Bisect(verts, 8)
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("sizes = %d,%d", len(a), len(b))
	}
	inA := make(map[int]bool)
	for _, v := range a {
		inA[v] = true
	}
	cut := g.CutWeight(verts, func(v int) bool { return inA[v] })
	if cut != 2 {
		t.Errorf("ring bisection cut = %d, want 2", cut)
	}
}

func TestBisectSeparatesCliques(t *testing.T) {
	// Two 4-cliques joined by a light bridge: the bisection must cut only
	// the bridge.
	g := New(8)
	for _, base := range []int{0, 4} {
		for i := base; i < base+4; i++ {
			for j := i + 1; j < base+4; j++ {
				if err := g.AddEdge(i, j, 10); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := g.AddEdge(3, 4, 1); err != nil {
		t.Fatal(err)
	}
	verts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	a, _ := NewBisector(g).Bisect(verts, 4)
	inA := make(map[int]bool)
	for _, v := range a {
		inA[v] = true
	}
	if inA[0] != inA[1] || inA[0] != inA[2] || inA[0] != inA[3] {
		t.Errorf("clique 0-3 split: A=%v", a)
	}
	cut := g.CutWeight(verts, func(v int) bool { return inA[v] })
	if cut != 1 {
		t.Errorf("cut = %d, want 1", cut)
	}
}

func TestBisectDegenerateSizes(t *testing.T) {
	g := ring(4, 1)
	verts := []int{0, 1, 2, 3}
	a, b := NewBisector(g).Bisect(verts, 0)
	if len(a) != 0 || len(b) != 4 {
		t.Errorf("sizeA=0: %v %v", a, b)
	}
	a, b = NewBisector(g).Bisect(verts, 4)
	if len(a) != 4 || len(b) != 0 {
		t.Errorf("sizeA=4: %v %v", a, b)
	}
	a, b = NewBisector(g).Bisect(verts, 7)
	if len(a) != 4 || len(b) != 0 {
		t.Errorf("sizeA>n: %v %v", a, b)
	}
}

func TestBisectSubsetOnly(t *testing.T) {
	g := ring(8, 1)
	verts := []int{0, 1, 2, 5, 6, 7} // skip 3, 4
	a, b := NewBisector(g).Bisect(verts, 3)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("sizes = %d,%d", len(a), len(b))
	}
	seen := map[int]bool{}
	for _, v := range append(append([]int{}, a...), b...) {
		if v == 3 || v == 4 {
			t.Errorf("vertex %d outside subset appeared", v)
		}
		if seen[v] {
			t.Errorf("vertex %d duplicated", v)
		}
		seen[v] = true
	}
}

func TestBisectPartitionProperty(t *testing.T) {
	g := ring(32, 3)
	verts := make([]int, 32)
	for i := range verts {
		verts[i] = i
	}
	prop := func(szRaw uint8) bool {
		sz := int(szRaw) % 33
		a, b := NewBisector(g).Bisect(verts, sz)
		if len(a) != sz || len(a)+len(b) != 32 {
			return false
		}
		seen := map[int]bool{}
		for _, v := range append(append([]int{}, a...), b...) {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBisectIsolatedVertices(t *testing.T) {
	// A graph with no edges must still partition cleanly.
	g := New(6)
	verts := []int{0, 1, 2, 3, 4, 5}
	a, b := NewBisector(g).Bisect(verts, 2)
	if len(a) != 2 || len(b) != 4 {
		t.Errorf("sizes = %d,%d", len(a), len(b))
	}
}

func TestInsertTopD(t *testing.T) {
	dval := []int64{5, 1, 9, 3, 7}
	var cand []int
	for v := range dval {
		insertTopD(&cand, dval, v, 3)
	}
	want := []int{2, 4, 0} // D = 9, 7, 5
	if len(cand) != 3 {
		t.Fatalf("len = %d", len(cand))
	}
	for i := range want {
		if cand[i] != want[i] {
			t.Fatalf("cand = %v, want %v", cand, want)
		}
	}
}
