package patterns

import (
	"testing"

	"repro/internal/core"
)

func TestBuildRecursiveDoubling(t *testing.T) {
	g, err := Build(core.RecursiveDoubling, 8)
	if err != nil {
		t.Fatal(err)
	}
	// log2(8) = 3 stages, 4 pairs each: 12 edges.
	if got := len(g.Edges()); got != 12 {
		t.Errorf("edges = %d, want 12", got)
	}
	// Stage weights: (0,1) weight 1, (0,2) weight 2, (0,4) weight 4.
	for _, e := range g.Neighbors(0) {
		want := int64(e.To) // partner i^s=s for rank 0
		if e.W != want {
			t.Errorf("edge (0,%d) weight = %d, want %d", e.To, e.W, want)
		}
	}
}

func TestBuildRing(t *testing.T) {
	g, err := Build(core.Ring, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Edges()); got != 5 {
		t.Errorf("edges = %d, want 5", got)
	}
	for _, e := range g.Edges() {
		if e.W != 4 {
			t.Errorf("ring edge weight = %d, want 4", e.W)
		}
	}
}

func TestBuildRingTwoProcs(t *testing.T) {
	g, err := Build(core.Ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1) and (1,0) accumulate onto one undirected edge.
	edges := g.Edges()
	if len(edges) != 1 || edges[0].W != 2 {
		t.Errorf("p=2 ring edges = %v", edges)
	}
}

func TestBuildBinomialBroadcast(t *testing.T) {
	g, err := Build(core.BinomialBroadcast, 8)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if len(edges) != 7 {
		t.Fatalf("tree on 8 ranks has %d edges, want 7", len(edges))
	}
	for _, e := range edges {
		if e.W != 1 {
			t.Errorf("broadcast edge (%d,%d) weight = %d, want 1", e.U, e.V, e.W)
		}
	}
}

func TestBuildBinomialGather(t *testing.T) {
	g, err := Build(core.BinomialGather, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Root edges: (0,4) carries 4 blocks, (0,2) carries 2, (0,1) carries 1.
	for _, e := range g.Neighbors(0) {
		if e.W != int64(e.To) {
			t.Errorf("gather edge (0,%d) weight = %d, want %d", e.To, e.W, e.To)
		}
	}
	// Total gather traffic = sum over edges of subtree sizes; for p=8:
	// 1+2+1+4+1+2+1 = 12.
	if got := g.TotalWeight(); got != 12 {
		t.Errorf("gather total weight = %d, want 12", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(core.Ring, 0); err == nil {
		t.Error("accepted p=0")
	}
	if _, err := Build(core.Pattern(99), 4); err == nil {
		t.Error("accepted unknown pattern")
	}
}

func TestBuildSingleProcess(t *testing.T) {
	for _, pat := range core.Patterns {
		g, err := Build(pat, 1)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if len(g.Edges()) != 0 {
			t.Errorf("%v: p=1 graph has edges", pat)
		}
	}
}
