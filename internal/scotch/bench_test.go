package scotch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/patterns"
	"repro/internal/topology"
)

// BenchmarkScotchMap times the mapper on the two inputs that dominate its
// callers: ring on a p=1024 two-level fat-tree of the benchmark's
// fattree-1024 shape (plan-sweep's ScotchMap op) and recursive doubling on
// the GPC at p=4096 (Fig. 7(b)'s largest point). The pattern graph is built
// once; each iteration is one Map.
func BenchmarkScotchMap(b *testing.B) {
	fat, err := topology.NewCluster(128, 2, 4, topology.TwoLevelFatTree(8, 16, 8))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		c    *topology.Cluster
		pat  core.Pattern
		p    int
	}{
		{"ring/fattree-1024", fat, core.Ring, 1024},
		{"rd/gpc-4096", topology.GPC(), core.RecursiveDoubling, 4096},
	} {
		g, err := patterns.Build(bc.pat, bc.p)
		if err != nil {
			b.Fatal(err)
		}
		d := hostFor(b, bc.c, bc.p, topology.CyclicBunch)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchSink, err = Map(g, d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink core.Mapping
