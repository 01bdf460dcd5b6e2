package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

// torusMachine builds a one-rank-per-node torus cluster, the configuration
// where link-disjointness is exact (no two ranks share a router).
func torusMachine(t testing.TB, x, y, z int) *Machine {
	t.Helper()
	c, err := topology.NewCluster(x*y*z, 1, 1, topology.NewTorus3D(x, y, z))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func identityLayout(p int) []int {
	l := make([]int, p)
	for i := range l {
		l[i] = i
	}
	return l
}

// TestTorusRRAlltoallLinkDisjoint is the pricing-side property test: on 2-D
// and 3-D tori with one rank per node, no directed torus link is priced
// twice within any stage of the direct-connect round-robin all-to-all. The
// assertion reads the exact link accounting PriceProgram divides capacity
// by, so the property holds by the cost model's own books, not by re-derived
// geometry.
func TestTorusRRAlltoallLinkDisjoint(t *testing.T) {
	cases := []struct {
		x, y, z int
	}{
		{8, 8, 1},
		{4, 4, 4},
		{4, 4, 2},
	}
	for _, tc := range cases {
		m := torusMachine(t, tc.x, tc.y, tc.z)
		dims, ok := topology.TorusRankDims(m.Cluster, m.Cluster.TotalCores())
		if !ok {
			t.Fatalf("%dx%dx%d: no torus rank dims", tc.x, tc.y, tc.z)
		}
		s, err := sched.TorusRRAlltoall(dims)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sched.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		loads, err := m.MaxStageLinkLoads(prog, identityLayout(prog.P))
		if err != nil {
			t.Fatal(err)
		}
		for si, l := range loads {
			if l > 1 {
				t.Errorf("%dx%dx%d: stage %d loads a torus link %d times, want at most 1", tc.x, tc.y, tc.z, si, l)
			}
		}
	}
}

// TestTorusRRBeatsFatTreeHeuristicSchedules pins the acceptance inequality:
// on a 64-rank 2-D torus the torus-native round-robin all-to-all prices
// strictly below both fat-tree-heuristic schedules (pairwise exchange and
// Bruck) throughout the small-to-medium per-pair regime. Large per-pair
// payloads flip to pairwise exchange — store-and-forward re-sends every
// byte once per hop while the model's cut-through pairwise transfer pays
// only its worst shared link — which is exactly the regime split the synth
// selection table encodes per size bucket.
func TestTorusRRBeatsFatTreeHeuristicSchedules(t *testing.T) {
	m := torusMachine(t, 8, 8, 1)
	p := 64
	layout := identityLayout(p)
	dims, _ := topology.TorusRankDims(m.Cluster, p)
	rr, err := sched.TorusRRAlltoall(dims)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := sched.PairwiseAlltoall(p)
	if err != nil {
		t.Fatal(err)
	}
	br, err := sched.BruckAlltoall(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, perPair := range []int{64, 512, 1024} {
		price := func(s *sched.Schedule) float64 {
			v, err := m.Price(s, layout, perPair)
			if err != nil {
				t.Fatalf("%s at %dB: %v", s.Name, perPair, err)
			}
			return v
		}
		rrT, pwT, brT := price(rr), price(pw), price(br)
		best := pwT
		if brT < best {
			best = brT
		}
		if rrT >= best {
			t.Errorf("per-pair %dB: torus-rr %.3gs not below best fat-tree schedule %.3gs (pairwise %.3g, bruck %.3g)",
				perPair, rrT, best, pwT, brT)
		}
	}
	// The flip: at bulk per-pair sizes cut-through pairwise exchange wins,
	// so the selector must not pick the torus schedule unconditionally.
	rrBig, err := m.Price(rr, layout, 65536)
	if err != nil {
		t.Fatal(err)
	}
	pwBig, err := m.Price(pw, layout, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if pwBig >= rrBig {
		t.Errorf("per-pair 64KiB: pairwise %.3gs should beat store-and-forward torus-rr %.3gs", pwBig, rrBig)
	}
}

// fatTreeMachine builds a two-level fat tree with one rank per core sized to
// hold p ranks, mirroring the torus benches at equal scale.
func fatTreeMachine(t testing.TB, p int) *Machine {
	t.Helper()
	nodes := p / 8 // 2 sockets x 4 cores, the repo's standard node shape
	leaves := nodes / 4
	if leaves < 1 {
		leaves = 1
	}
	c, err := topology.NewCluster(nodes, 2, 4, topology.TwoLevelFatTree(leaves, (nodes+leaves-1)/leaves, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// BenchmarkAlltoall prices the three all-to-all schedules on tori and fat
// trees at p in {64, 256, 1024} and reports the modelled collective time as
// the modeled_s metric. The per-pair payload is 1 KiB, the small-message
// regime all-to-alls overwhelmingly run in;
// TestTorusRRBeatsFatTreeHeuristicSchedules asserts the Torus/64 ordering,
// where torus-rr must price strictly below pairwise and Bruck.
func BenchmarkAlltoall(b *testing.B) {
	const perPair = 1024
	type torusShape struct{ x, y, z int }
	shapes := map[int]torusShape{
		64:   {8, 8, 1},
		256:  {16, 16, 1},
		1024: {16, 16, 4},
	}
	for _, p := range []int{64, 256, 1024} {
		pw, err := sched.PairwiseAlltoall(p)
		if err != nil {
			b.Fatal(err)
		}
		br, err := sched.BruckAlltoall(p)
		if err != nil {
			b.Fatal(err)
		}
		layout := identityLayout(p)

		sh := shapes[p]
		tm := torusMachine(b, sh.x, sh.y, sh.z)
		dims, ok := topology.TorusRankDims(tm.Cluster, p)
		if !ok {
			b.Fatalf("p=%d: no torus dims", p)
		}
		rr, err := sched.TorusRRAlltoall(dims)
		if err != nil {
			b.Fatal(err)
		}
		fm := fatTreeMachine(b, p)

		run := func(name string, m *Machine, s *sched.Schedule) {
			b.Run(fmt.Sprintf("%s/%d/%s", name, p, s.Name), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					lat, err = m.Price(s, layout, perPair)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(lat, "modeled_s")
			})
		}
		run("Torus", tm, rr)
		run("Torus", tm, pw)
		run("Torus", tm, br)
		run("FatTree", fm, pw)
		run("FatTree", fm, br)
	}
}
