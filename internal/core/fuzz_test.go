package core

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// FuzzMappingValidate hardens Mapping.Validate/Apply/NewRankOf against
// arbitrary inputs: they must never panic, and a mapping that validates
// must round-trip through Apply and NewRankOf consistently.
func FuzzMappingValidate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 0, 1, 2})
	f.Add([]byte{0, 0})
	f.Add([]byte{255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		m := make(Mapping, len(raw))
		for i, b := range raw {
			m[i] = int(b) % (len(raw) + 2) // sometimes out of range
		}
		err := m.Validate()
		layout := make([]int, len(m))
		for i := range layout {
			layout[i] = i * 7
		}
		out, applyErr := m.Apply(layout)
		if err == nil {
			if applyErr != nil {
				t.Fatalf("valid mapping failed Apply: %v", applyErr)
			}
			inv := m.NewRankOf()
			for newRank, slot := range m {
				if inv[slot] != newRank {
					t.Fatalf("NewRankOf inconsistent at %d", newRank)
				}
				if out[newRank] != layout[slot] {
					t.Fatalf("Apply inconsistent at %d", newRank)
				}
			}
		}
	})
}

// FuzzHeuristicsOnRandomLayouts drives every heuristic over fuzzer-chosen
// process counts and layout kinds: always a valid permutation, never a
// panic.
func FuzzHeuristicsOnRandomLayouts(f *testing.F) {
	f.Add(uint8(8), uint8(0))
	f.Add(uint8(13), uint8(3))
	f.Add(uint8(1), uint8(1))
	c, err := topology.NewCluster(4, 2, 4, topology.TwoLevelFatTree(2, 2, 1))
	if err != nil {
		f.Fatal(err)
	}
	heuristics := []Heuristic{RDMH, RMH, BBMH, BGMH, BKMH}
	f.Fuzz(func(t *testing.T, pRaw, kindRaw uint8) {
		p := int(pRaw)%32 + 1
		kind := topology.AllLayouts[int(kindRaw)%len(topology.AllLayouts)]
		layout, err := topology.Layout(c, p, kind)
		if err != nil {
			t.Fatal(err)
		}
		d, err := topology.NewDistances(c, layout)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range heuristics {
			m, err := h(d, nil)
			if err != nil {
				t.Fatalf("heuristic %d failed: %v", i, err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("heuristic %d produced invalid mapping: %v", i, err)
			}
		}
	})
}

// FuzzKernelEquivalence drives every oracle heuristic over fuzzer-chosen
// process counts, layout kinds, allocated node subsets and networks — a
// fat-tree, and a torus whose placements cross nodes through the node
// table — asserting the production kernel reproduces the reference scan's
// mapping exactly under deterministic tie-breaking.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint8(8), uint8(0), uint8(0b1111), uint8(0))
	f.Add(uint8(13), uint8(3), uint8(0b1010), uint8(0))
	f.Add(uint8(31), uint8(2), uint8(0b0111), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(0b0001), uint8(0))
	f.Add(uint8(15), uint8(1), uint8(0b11111111), uint8(1))
	f.Add(uint8(9), uint8(3), uint8(0b10100101), uint8(1))
	ft, err := topology.NewCluster(4, 2, 4, topology.TwoLevelFatTree(2, 2, 1))
	if err != nil {
		f.Fatal(err)
	}
	torus, err := topology.NewCluster(8, 1, 2, topology.NewTorus3D(4, 2, 1))
	if err != nil {
		f.Fatal(err)
	}
	clusters := []*topology.Cluster{ft, torus}
	f.Fuzz(func(t *testing.T, pRaw, kindRaw, nodeMask, clusterRaw uint8) {
		c := clusters[int(clusterRaw)%len(clusters)]
		kind := topology.AllLayouts[int(kindRaw)%len(topology.AllLayouts)]
		var nodes []int
		for n := 0; n < c.Nodes; n++ {
			if nodeMask&(1<<n) != 0 {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) == 0 {
			nodes = []int{0}
		}
		p := int(pRaw)%(len(nodes)*c.CoresPerNode()) + 1
		layout, err := topology.LayoutOnNodes(c, p, kind, nodes)
		if err != nil {
			t.Fatal(err)
		}
		d, err := topology.NewDistances(c, layout)
		if err != nil {
			t.Fatal(err)
		}
		for name, heur := range oracleHeuristics {
			scan, err := heur(nil, d, scanOpts)
			if err != nil {
				t.Fatalf("%s scan: %v", name, err)
			}
			got, err := heur(nil, d, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(scan, got) {
				t.Fatalf("%s diverged (%s p=%d %v nodes=%v)\nscan:   %v\nkernel: %v",
					name, c.Net.Label(), p, kind, nodes, scan, got)
			}
		}
	})
}
