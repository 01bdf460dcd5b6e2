package core

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

// BenchmarkHeuristicKernel compares the production kernel with the
// reference scan across the paper's heuristics at GPC scale and on an
// 8×8×8 torus with 2×4 cores per node, where cross-node placements go
// through the node table. Distance-source construction happens outside the
// timer so the numbers isolate mapping time.
func BenchmarkHeuristicKernel(b *testing.B) {
	torus, err := topology.NewCluster(512, 2, 4, topology.NewTorus3D(8, 8, 8))
	if err != nil {
		b.Fatal(err)
	}
	heuristics := []struct {
		name string
		fn   OracleHeuristic
	}{
		{"rmh", RMHOracle},
		{"bgmh", BGMHOracle},
		{"rdmh", RDMHOracle},
		{"bbmh", BBMHOracle},
	}
	for _, cl := range []struct {
		name string
		c    *topology.Cluster
	}{{"gpc", topology.GPC()}, {"torus", torus}} {
		for _, p := range []int{512, 2048, 4096} {
			layout := topology.MustLayout(cl.c, p, topology.CyclicBunch)
			d, err := topology.NewDistances(cl.c, layout)
			if err != nil {
				b.Fatal(err)
			}
			kernels := []struct {
				name string
				opts *Options
			}{
				{"scan", scanOpts},
				{"kernel", nil},
			}
			for _, hr := range heuristics {
				for _, k := range kernels {
					b.Run(fmt.Sprintf("%s/%s/p%d/%s", cl.name, hr.name, p, k.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if _, err := hr.fn(nil, d, k.opts); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
