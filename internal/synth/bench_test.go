package synth

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
	"repro/internal/topology"
)

// benchMachine builds a machine with p ranks (8 cores per node) under the
// named network, scaling the network to the node count so every rank lands
// on a distinct core.
func benchMachine(b *testing.B, topo string, p int) *simnet.Machine {
	b.Helper()
	nodes := p / 8
	var net topology.Network
	switch topo {
	case "fattree":
		switch nodes {
		case 8:
			net = topology.TwoLevelFatTree(2, 4, 2)
		case 32:
			net = topology.TwoLevelFatTree(4, 8, 2)
		case 128:
			net = topology.TwoLevelFatTree(8, 16, 4)
		default:
			b.Fatalf("no fat tree sized for %d nodes", nodes)
		}
	case "torus":
		switch nodes {
		case 8:
			net = topology.NewTorus3D(2, 2, 2)
		case 32:
			net = topology.NewTorus3D(4, 4, 2)
		case 128:
			net = topology.NewTorus3D(8, 4, 4)
		default:
			b.Fatalf("no torus sized for %d nodes", nodes)
		}
	default:
		b.Fatalf("unknown bench topology %q", topo)
	}
	c, err := topology.NewCluster(nodes, 2, 4, net)
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	m, err := simnet.NewMachine(c, simnet.DefaultParams())
	if err != nil {
		b.Fatalf("machine: %v", err)
	}
	return m
}

// BenchmarkSynthSearch runs one full search per iteration, reporting search
// throughput as candidates/s (priced plus pruned per wall-clock second), the
// size of the emitted pareto front and, with -benchmem, what a search
// allocates. Allgather at 2 KiB runs across the benchmark topology matrix;
// every family runs at 2 KiB and 256 KiB on fattree/p64, where all-to-all
// @ 256 KiB (pairwise exchange: 63 stages over a 4096-block space) is the
// heavy point.
func BenchmarkSynthSearch(b *testing.B) {
	run := func(name, topo string, p int, f Family, payload int) {
		b.Run(name, func(b *testing.B) {
			m := benchMachine(b, topo, p)
			var candidates, pareto float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Search(m, nil, f, p, payload, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Best == nil {
					b.Fatal("search emitted no winner")
				}
				candidates += float64(res.Explored + res.PrunedVerify + res.PrunedBound + res.PrunedShape)
				pareto = float64(len(res.Pareto))
			}
			b.ReportMetric(candidates/b.Elapsed().Seconds(), "candidates/s")
			b.ReportMetric(pareto, "pareto-schedules")
		})
	}
	for _, topo := range []string{"fattree", "torus"} {
		for _, p := range []int{64, 256, 1024} {
			run(fmt.Sprintf("%s/p%d", topo, p), topo, p, Allgather, 2048)
		}
	}
	for _, f := range Families() {
		for _, payload := range []int{2 << 10, 256 << 10} {
			run(fmt.Sprintf("fattree/p64/%v/%dKiB", f, payload>>10), "fattree", 64, f, payload)
		}
	}
}
