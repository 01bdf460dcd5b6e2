package core

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

// BenchmarkHeuristicKernel compares the three kernel configurations —
// dense matrix + linear scan, dense matrix + bucketed index, and the
// compact Hierarchy oracle + bucketed index — across the paper's heuristics
// at GPC scale. Distance-source construction happens outside the timer so
// the numbers isolate mapping time.
func BenchmarkHeuristicKernel(b *testing.B) {
	c := topology.GPC()
	heuristics := []struct {
		name string
		fn   OracleHeuristic
	}{
		{"rmh", RMHOracle},
		{"bgmh", BGMHOracle},
		{"rdmh", RDMHOracle},
		{"bbmh", BBMHOracle},
	}
	for _, p := range []int{512, 2048, 4096} {
		layout := topology.MustLayout(c, p, topology.CyclicBunch)
		d, err := topology.NewDistances(c, layout)
		if err != nil {
			b.Fatal(err)
		}
		h, err := topology.NewHierarchy(c, layout)
		if err != nil {
			b.Fatal(err)
		}
		kernels := []struct {
			name string
			o    topology.Oracle
			opts *Options
		}{
			{"scan", d, &Options{Kernel: KernelScan}},
			{"bucketed", d, &Options{Kernel: KernelBucketed}},
			{"oracle", h, nil},
		}
		for _, hr := range heuristics {
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/p%d/%s", hr.name, p, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := hr.fn(nil, k.o, k.opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
