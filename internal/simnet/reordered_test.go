package simnet

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// reorderedMachines returns a fat-tree (the paper's GPC) and an 8x8 torus of
// two-socket, two-core nodes, so the four layout kinds place ranks apart.
func reorderedMachines(t testing.TB) map[string]*Machine {
	t.Helper()
	torus, err := topology.NewCluster(64, 2, 2, topology.NewTorus3D(8, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewMachine(torus, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Machine{"fattree": gpcMachine(t), "torus-8x8": tm}
}

// osuSizes is the OSU sweep, 4 B to 256 KiB by doubling.
func osuSizes() []int {
	var sizes []int
	for b := 4; b <= 256<<10; b *= 2 {
		sizes = append(sizes, b)
	}
	return sizes
}

// TestProfileReorderedMatchesReference pins ProfileReordered to an
// independent composition — the order-preserved schedule compiled with
// sched.Compile and priced on the applied layout by PriceProgram — with ==,
// for every registered pattern, order mode, layout kind and OSU size on a
// fat-tree and a torus. The mapping is the pattern's own heuristic on the
// layout.
func TestProfileReorderedMatchesReference(t *testing.T) {
	const p = 64
	modes := []sched.OrderMode{sched.InitComm, sched.EndShuffle, sched.NoOrderFix}
	for mname, m := range reorderedMachines(t) {
		for _, kind := range topology.AllLayouts {
			layout := topology.MustLayout(m.Cluster, p, kind)
			d, err := topology.NewDistances(m.Cluster, layout)
			if err != nil {
				t.Fatal(err)
			}
			for _, pat := range core.Patterns {
				s, err := sched.ForPattern(pat, p)
				if err != nil {
					t.Fatal(err)
				}
				mapping, err := pat.Heuristic()(d, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range modes {
					name := fmt.Sprintf("%s/%v/%v/%v", mname, kind, pat, mode)
					pp, err := m.ProfileReordered(context.Background(), s, layout, mapping, mode)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					withOrder, err := sched.WithOrderPreservation(s, mapping, mode)
					if err != nil {
						t.Fatal(err)
					}
					prog, err := sched.Compile(withOrder)
					if err != nil {
						t.Fatal(err)
					}
					eff, err := mapping.Apply(layout)
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range osuSizes() {
						got, err := pp.Price(b)
						if err != nil {
							t.Fatal(err)
						}
						want, err := m.PriceProgram(prog, eff, b)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("%s/%dB: ProfileReordered %.17g, reference %.17g", name, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestProfileReorderedRejectsBadMappings: a mapping that is short, repeats a
// slot or names one outside the layout is an error under every order mode,
// never a panic.
func TestProfileReorderedRejectsBadMappings(t *testing.T) {
	const p = 16
	m := gpcMachine(t)
	s, err := sched.RecursiveDoubling(p) // needs the order fix
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)
	repeated := core.Identity(p)
	repeated[0], repeated[1] = 1, 1
	outside := core.Identity(p)
	outside[0], outside[p-1] = p-1, p+3
	for name, bad := range map[string]core.Mapping{
		"short":    core.Identity(p - 1),
		"repeated": repeated,
		"outside":  outside,
	} {
		for _, mode := range []sched.OrderMode{sched.InitComm, sched.EndShuffle, sched.NoOrderFix} {
			if _, err := m.ProfileReordered(context.Background(), s, layout, bad, mode); err == nil {
				t.Errorf("%s mapping accepted under %v", name, mode)
			}
		}
	}
}

// TestPricingDoesNotTouchCompileCache: no pricing entry point consults the
// process-wide program table. Its key is a hash of the whole schedule, which
// costs about what pricing does; pricing builds what it needs directly.
func TestPricingDoesNotTouchCompileCache(t *testing.T) {
	const p = 64
	m := gpcMachine(t)
	s, err := sched.RecursiveDoubling(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)
	mapping := core.Identity(p)
	mapping[0], mapping[1] = 1, 0
	ctx := context.Background()
	hits, misses := sched.CompileCacheCounters()
	for name, call := range map[string]func() error{
		"Price":          func() error { _, err := m.Price(s, layout, 1024); return err },
		"Explain":        func() error { _, err := m.Explain(s, layout, 1024); return err },
		"ExplainProgram": func() error { _, err := m.ExplainProgram(prog, layout, 1024); return err },
		"PricePipelined": func() error { _, err := m.PricePipelined(s, layout, 1024); return err },
		"ProfileSchedule": func() error {
			_, err := m.ProfileSchedule(ctx, s, layout)
			return err
		},
		"ProfileReordered": func() error {
			_, err := m.ProfileReordered(ctx, s, layout, mapping, sched.InitComm)
			return err
		},
	} {
		if err := call(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h, mi := sched.CompileCacheCounters(); h != hits || mi != misses {
			t.Errorf("%s consulted the compile cache: hits %d -> %d, misses %d -> %d", name, hits, h, misses, mi)
			hits, misses = h, mi
		}
	}
}
