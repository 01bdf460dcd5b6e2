package simnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/topology"
)

// equivMachines returns the three network classes the model supports: the
// paper's GPC fat-tree, a uniform (nil-network) cluster, and a 3D torus.
func equivMachines(t testing.TB) map[string]*Machine {
	t.Helper()
	mk := func(nodes, sockets, cores int, net topology.Network) *Machine {
		c, err := topology.NewCluster(nodes, sockets, cores, net)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(c, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return map[string]*Machine{
		"fattree": mk(512, 2, 4, topology.GPCFatTree()),
		"uniform": mk(16, 2, 4, nil),
		"torus":   mk(64, 2, 4, topology.NewTorus3D(4, 4, 4)),
	}
}

// equivPrograms compiles the allgather algorithm family at size p.
func equivPrograms(t testing.TB, p int) map[string]*sched.Program {
	t.Helper()
	gens := map[string]func(int) (*sched.Schedule, error){
		"ring":               sched.Ring,
		"recursive-doubling": sched.RecursiveDoubling,
		"bruck":              sched.Bruck,
		"rsag":               sched.ReduceScatterAllgather,
		"neighbor-exchange":  sched.NeighborExchange,
	}
	progs := make(map[string]*sched.Program, len(gens))
	for name, gen := range gens {
		s, err := gen(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sched.CompileCached(s)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = prog
	}
	return progs
}

// TestSparseDensePriceEquivalence pins the sparse epoch-stamped pricing
// bit-identical (plain float equality, no tolerance) to the dense map-based
// reference across network classes, algorithms, layouts and message sizes.
// The scratch is reused across all cases of a machine — exactly the pooled
// steady state PriceProgram runs in — so stale-epoch aliasing between
// unrelated pricings would be caught here.
func TestSparseDensePriceEquivalence(t *testing.T) {
	layouts := []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter, topology.CyclicBunch}
	for mname, m := range equivMachines(t) {
		p := m.Cluster.TotalCores() / 2 // half occupancy exercises layout spread
		if p > 512 {
			p = 512
		}
		for pname, prog := range equivPrograms(t, p) {
			for _, kind := range layouts {
				layout := topology.MustLayout(m.Cluster, p, kind)
				for _, blockBytes := range []int{64, 64 * 1024} {
					name := fmt.Sprintf("%s/%s/%v/%dB", mname, pname, kind, blockBytes)
					sparse, err := m.PriceProgram(prog, layout, blockBytes)
					if err != nil {
						t.Fatalf("%s: sparse: %v", name, err)
					}
					dense, err := m.priceProgramDense(prog, layout, blockBytes)
					if err != nil {
						t.Fatalf("%s: dense: %v", name, err)
					}
					if sparse != dense {
						t.Errorf("%s: sparse price %.17g differs from dense %.17g", name, sparse, dense)
					}
				}
			}
		}
	}
}

// TestSparseDenseTransferEquivalence pins the per-transfer durations
// PricePipelined consumes — transferDurations on the sparse scratch — to the
// dense reference's per-transfer times with plain float equality, stage by
// stage over the same machine x program x layout x size matrix.
func TestSparseDenseTransferEquivalence(t *testing.T) {
	layouts := []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter, topology.CyclicBunch}
	for mname, m := range equivMachines(t) {
		p := m.Cluster.TotalCores() / 2
		if p > 512 {
			p = 512
		}
		sc := m.getScratch()
		for pname, prog := range equivPrograms(t, p) {
			for _, kind := range layouts {
				layout := topology.MustLayout(m.Cluster, p, kind)
				for _, blockBytes := range []int{64, 64 * 1024} {
					for si := range prog.Stages {
						transfers := prog.Stages[si].Transfers
						got, err := m.transferDurations(sc, nil, transfers, layout, blockBytes)
						if err != nil {
							t.Fatal(err)
						}
						loads := newStageLoads()
						m.aggregateLoads(transfers, layout, loads)
						var routeBuf []topology.DirLink
						for ti := range transfers {
							want, err := m.transferTimeDense(&transfers[ti], layout, blockBytes, loads, &routeBuf)
							if err != nil {
								t.Fatal(err)
							}
							if got[ti] != want {
								t.Errorf("%s/%s/%v/%dB stage %d transfer %d: sparse %.17g differs from dense %.17g",
									mname, pname, kind, blockBytes, si, ti, got[ti], want)
							}
						}
					}
				}
			}
		}
		m.scratch.Put(sc)
	}
}

// TestSparseDenseExplainEquivalence checks the per-stage breakdown path,
// which shares priceStage with PriceProgram, against the dense stage prices.
func TestSparseDenseExplainEquivalence(t *testing.T) {
	m := gpcMachine(t)
	const p, blockBytes = 256, 4096
	s, err := sched.NeighborExchange(p)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)
	bd, err := m.Explain(s, layout, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd.Stages) != len(prog.Stages) {
		t.Fatalf("breakdown covers %d stages, program has %d", len(bd.Stages), len(prog.Stages))
	}
	for i, st := range bd.Stages {
		want, err := m.priceStageDense(prog.Stages[i].Transfers, layout, blockBytes)
		if err != nil {
			t.Fatal(err)
		}
		if st.Seconds != want {
			t.Errorf("stage %d: sparse %.17g differs from dense %.17g", i, st.Seconds, want)
		}
	}
}

// TestPriceProgramRingP65536 is the scale acceptance bound: pricing a
// 65536-rank ring on an 8192-node fat-tree must finish well inside a second.
// Before the sparse rewrite this burned per-stage map churn and two route
// computations per inter-node transfer.
func TestPriceProgramRingP65536(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second setup at p=65536")
	}
	const p = 65536
	c, err := topology.NewCluster(8192, 2, 4, topology.TwoLevelFatTree(512, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(c, p, topology.BlockBunch)
	// Warm run populates the route cache; the timed run is the steady state
	// the heuristics see.
	first, err := m.PriceProgram(prog, layout, 4096)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	warm, err := m.PriceProgram(prog, layout, 4096)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if warm != first {
		t.Errorf("warm price %.17g differs from cold %.17g", warm, first)
	}
	if warm <= 0 {
		t.Errorf("price = %g", warm)
	}
	if elapsed > time.Second {
		t.Errorf("PriceProgram(ring p=65536) took %v, want < 1s", elapsed)
	}
}

// TestPriceStageAllocs extends the AllocsPerRun discipline to the pricing
// hot loop: with a warm scratch, pricing a stage allocates nothing.
func TestPriceStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on map operations")
	}
	m := gpcMachine(t)
	const p, blockBytes = 512, 4096
	s, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	transfers := prog.Stages[0].Transfers
	for i := 0; i < 3; i++ { // warm the route and link-id caches
		if _, err := m.priceStage(sc, transfers, layout, blockBytes); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := m.priceStage(sc, transfers, layout, blockBytes); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("warm priceStage allocates %.2f times per call, want 0", avg)
	}
}

// BenchmarkPriceProgram is the cost model's scaling benchmark: a full ring
// pricing at three process counts, allocs reported. The p=65536
// machine matches the acceptance test above.
func BenchmarkPriceProgram(b *testing.B) {
	cases := []struct {
		p      int
		leaves int
		uplink int
	}{
		{1024, 8, 2},
		{8192, 64, 2},
		{65536, 512, 3},
	}
	for _, tc := range cases {
		c, err := topology.NewCluster(tc.p/8, 2, 4, topology.TwoLevelFatTree(tc.leaves, 16, tc.uplink))
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMachine(c, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		s, err := sched.Ring(tc.p)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := sched.CompileCached(s)
		if err != nil {
			b.Fatal(err)
		}
		layout := topology.MustLayout(c, tc.p, topology.BlockBunch)
		b.Run(fmt.Sprintf("ring/p%d", tc.p), func(b *testing.B) {
			if _, err := m.PriceProgram(prog, layout, 4096); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.PriceProgram(prog, layout, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
