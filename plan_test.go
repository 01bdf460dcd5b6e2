package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hwdisc"
	"repro/internal/osu"
	"repro/internal/sched"
)

// TestPlanMatchesDenseHeuristic pins the planner to the path it replaced:
// Plan maps on whatever topology.NewOracle returns and prices discovery
// with hwdisc.Cost, and both must equal the dense route — hwdisc.Discover's
// matrix through the pattern's Heuristic — element for element.
func TestPlanMatchesDenseHeuristic(t *testing.T) {
	mk := func(nodes, sockets, cores int, net Network) *Cluster {
		c, err := NewCluster(nodes, sockets, cores, net)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	layoutOf := func(c *Cluster, p int, k LayoutKind) []int {
		layout, err := NewLayout(c, p, k)
		if err != nil {
			t.Fatal(err)
		}
		return layout
	}
	type job struct {
		name   string
		c      *Cluster
		layout []int
	}
	var jobs []job
	gpc := GPC()
	for _, k := range []LayoutKind{BlockBunch, BlockScatter, CyclicBunch, CyclicScatter} {
		jobs = append(jobs, job{"gpc/" + k.String(), gpc, layoutOf(gpc, 4096, k)})
	}
	var frag []int
	for i := 0; i < 128; i++ {
		frag = append(frag, (200+3*i)%gpc.Nodes)
	}
	fragLayout, err := NewLayoutOnNodes(gpc, 1024, CyclicScatter, frag)
	if err != nil {
		t.Fatal(err)
	}
	uniform := mk(4, 2, 2, nil)
	torus := mk(32, 2, 4, NewTorus3D(4, 4, 2)) // no hierarchy: the dense fallback
	jobs = append(jobs,
		job{"gpc/fragmented", gpc, fragLayout},
		job{"uniform", uniform, layoutOf(uniform, 16, CyclicBunch)},
		job{"torus", torus, layoutOf(torus, 256, CyclicBunch)},
	)

	for _, jb := range jobs {
		disc, err := hwdisc.Discover(jb.c, jb.layout, hwdisc.DefaultCostModel())
		if err != nil {
			t.Fatalf("%s: %v", jb.name, err)
		}
		for _, pat := range core.Patterns {
			want, err := pat.Heuristic()(disc.Distances, nil)
			if err != nil {
				t.Fatalf("%s/%v: dense heuristic: %v", jb.name, pat, err)
			}
			plan, err := Plan(jb.c, jb.layout, pat)
			if err != nil {
				t.Fatalf("%s/%v: %v", jb.name, pat, err)
			}
			if len(plan.Mapping) != len(want) {
				t.Fatalf("%s/%v: mapping has %d ranks, want %d", jb.name, pat, len(plan.Mapping), len(want))
			}
			for r := range want {
				if plan.Mapping[r] != want[r] {
					t.Fatalf("%s/%v: Mapping[%d] = %d, dense heuristic says %d", jb.name, pat, r, plan.Mapping[r], want[r])
				}
			}
			if plan.DiscoveryTime != disc.Elapsed {
				t.Errorf("%s/%v: DiscoveryTime = %v, Discover says %v", jb.name, pat, plan.DiscoveryTime, disc.Elapsed)
			}
		}
	}

	// The validation Discover did is still done.
	if _, err := Plan(gpc, []int{0, 0}, Ring); err == nil {
		t.Error("duplicate core in layout accepted")
	}
	if _, err := Plan(gpc, nil, Ring); err == nil {
		t.Error("empty layout accepted")
	}
	if _, err := Plan(nil, []int{0}, Ring); err == nil {
		t.Error("nil cluster accepted")
	}
}

// wantSpeedup is the definition Speedup's profiles must reproduce with
// plain float equality: two Machine.Price calls per size.
func wantSpeedup(t *testing.T, p *ReorderPlan, m *Machine, size int) (def, reordered float64) {
	t.Helper()
	s, err := sched.ForPattern(p.Pattern, len(p.Layout))
	if err != nil {
		t.Fatal(err)
	}
	if def, err = m.Price(s, p.Layout, size); err != nil {
		t.Fatal(err)
	}
	withFix, err := sched.WithOrderPreservation(s, p.Mapping, sched.InitComm)
	if err != nil {
		t.Fatal(err)
	}
	if reordered, err = m.Price(withFix, p.ReorderedLayout, size); err != nil {
		t.Fatal(err)
	}
	return def, reordered
}

// checkSpeedup compares one Speedup call against wantSpeedup.
func checkSpeedup(p *ReorderPlan, m *Machine, size int, wantDef, wantRe float64) error {
	def, re, imp, err := p.Speedup(m, size)
	if err != nil {
		return err
	}
	if def != wantDef || re != wantRe {
		return fmt.Errorf("%v at %d B: Speedup = (%v, %v), Price = (%v, %v)", p.Pattern, size, def, re, wantDef, wantRe)
	}
	if wantImp := (wantDef - wantRe) / wantDef * 100; imp != wantImp {
		return fmt.Errorf("%v at %d B: improvement = %v, want %v", p.Pattern, size, imp, wantImp)
	}
	return nil
}

func TestSpeedupMatchesPrice(t *testing.T) {
	cluster := GPC()
	layout, err := NewLayout(cluster, 1024, CyclicBunch)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewMachine(cluster, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	slow := DefaultCostParams()
	slow.StreamNet /= 2
	slow.AlphaNet *= 3
	m2, err := NewMachine(cluster, slow)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := PlanAll(cluster, layout, RecursiveDoubling, Ring, BinomialBroadcast, BinomialGather)
	if err != nil {
		t.Fatal(err)
	}
	sizes := osu.DefaultSizes()
	if len(sizes) != 17 {
		t.Fatalf("%d OSU sizes, want 17", len(sizes))
	}

	// Two machines alternated on one plan: the single profile slot must
	// never hand one machine the other's numbers.
	type want struct{ def, re float64 }
	wants := make(map[*ReorderPlan]map[*Machine][]want)
	for _, p := range plans {
		wants[p] = map[*Machine][]want{}
		for _, size := range sizes {
			for _, m := range []*Machine{m1, m2} {
				def, re := wantSpeedup(t, p, m, size)
				wants[p][m] = append(wants[p][m], want{def, re})
				if err := checkSpeedup(p, m, size, def, re); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a, b := wants[p][m1][0], wants[p][m2][0]; a == b {
			t.Fatalf("%v: the two machines price alike; the alternation proves nothing", p.Pattern)
		}
	}

	// Params are compared by value: editing them re-profiles.
	p := plans[0]
	edited, err := NewMachine(cluster, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSpeedup(p, edited, 1024, wants[p][m1][8].def, wants[p][m1][8].re); err != nil {
		t.Fatal(err)
	}
	edited.Params = slow
	if err := checkSpeedup(p, edited, 1024, wants[p][m2][8].def, wants[p][m2][8].re); err != nil {
		t.Fatalf("after editing Params: %v", err)
	}

	// Errors survive the move to profiles.
	for _, size := range []int{0, -4} {
		if _, _, _, err := p.Speedup(m1, size); err == nil {
			t.Errorf("message size %d accepted", size)
		}
	}
	short := &ReorderPlan{Pattern: p.Pattern, Mapping: p.Mapping, Layout: p.Layout, ReorderedLayout: p.ReorderedLayout[:len(p.Layout)-1]}
	if _, _, _, err := short.Speedup(m1, 1024); err == nil {
		t.Error("too-short reordered layout accepted")
	}

	// Concurrent sweeps on one plan, both machines: run under -race.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := []*Machine{m1, m2}[g%2]
			for _, p := range plans {
				for i, size := range sizes {
					if err := checkSpeedup(p, m, size, wants[p][m][i].def, wants[p][m][i].re); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
