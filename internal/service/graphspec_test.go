package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/graph"
)

// csr lays out per-vertex (neighbour, weight) entries as a GraphSpec.
func csr(rows [][][2]int64) *GraphSpec {
	g := &GraphSpec{N: len(rows), XAdj: []int{0}}
	for _, row := range rows {
		for _, e := range row {
			g.Adjncy = append(g.Adjncy, int(e[0]))
			g.Weights = append(g.Weights, e[1])
		}
		g.XAdj = append(g.XAdj, len(g.Adjncy))
	}
	return g
}

// TestGraphSpecEntries pins how a CSR spec becomes the graph mapd maps:
// every entry is checked, whichever endpoint lists it; an edge listed from
// one endpoint counts whichever endpoint that is; an edge listed from both
// counts once and must carry equal totals. A rejected spec is a 400.
func TestGraphSpecEntries(t *testing.T) {
	// want is the path 0-1-2 with weights 5 and 3.
	want := graph.New(3)
	if err := want.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := want.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec *GraphSpec
		ok   bool
	}{
		{"lower endpoint only", csr([][][2]int64{{{1, 5}}, {{2, 3}}, {}}), true},
		{"both endpoints", csr([][][2]int64{{{1, 5}}, {{0, 5}, {2, 3}}, {{1, 3}}}), true},
		{"higher endpoint only", csr([][][2]int64{{}, {{0, 5}}, {{1, 3}}}), true},
		{"mixed endpoints", csr([][][2]int64{{{1, 5}}, {{0, 5}}, {{1, 3}}}), true},
		{"duplicates summed per pair", csr([][][2]int64{{{1, 2}, {1, 3}}, {{0, 5}, {2, 3}}, {{1, 1}, {1, 2}}}), true},
		{"negative neighbour", csr([][][2]int64{{{1, 5}, {-1, 1}}, {{2, 3}}, {}}), false},
		{"neighbour past n", csr([][][2]int64{{{1, 5}}, {{2, 3}}, {{3, 1}}}), false},
		{"self-loop", csr([][][2]int64{{{1, 5}}, {{1, 1}, {2, 3}}, {}}), false},
		{"negative weight on the higher entry", csr([][][2]int64{{{1, 5}}, {{0, -7}, {2, 3}}, {}}), false},
		{"zero weight on the lower entry", csr([][][2]int64{{{1, 0}}, {{0, 5}, {2, 3}}, {}}), false},
		{"unequal totals", csr([][][2]int64{{{1, 5}}, {{0, 4}, {2, 3}}, {{1, 3}}}), false},
	} {
		s := newTestService(t)
		body, err := json.Marshal(&Request{Topology: smallTopo(), Procs: 3, Pattern: PatternSpec{Graph: c.spec}})
		if err != nil {
			t.Fatal(err)
		}
		wantCode := http.StatusBadRequest
		if c.ok {
			wantCode = http.StatusOK
		}
		if code, reply := serveMap(context.Background(), s.Handler(), body); code != wantCode {
			t.Errorf("%s: POST /map answered %d %s, want %d", c.name, code, reply, wantCode)
		}
		g, err := buildGraph(c.spec)
		switch {
		case !c.ok:
			if err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case g.Fingerprint() != want.Fingerprint():
			t.Errorf("%s: built %v, want %v", c.name, g.Edges(), want.Edges())
		}
	}
}
