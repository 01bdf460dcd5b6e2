package simnet

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// TestProfilePriceEquivalence pins PriceProfile.Price bit-identical (plain
// float equality, no tolerance) to PriceProgram across network classes,
// algorithms, layouts and a size sweep. The Pareto pruning of envelope lines
// must never change which transfer wins a stage's max at any size.
func TestProfilePriceEquivalence(t *testing.T) {
	layouts := []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter, topology.CyclicBunch}
	for mname, m := range equivMachines(t) {
		p := m.Cluster.TotalCores() / 2
		if p > 512 {
			p = 512
		}
		for pname, prog := range equivPrograms(t, p) {
			for _, kind := range layouts {
				layout := topology.MustLayout(m.Cluster, p, kind)
				pp, err := m.Profile(prog, layout)
				if err != nil {
					t.Fatalf("%s/%s/%v: profile: %v", mname, pname, kind, err)
				}
				for _, blockBytes := range []int{1, 64, 4096, 64 * 1024, 1 << 20} {
					name := fmt.Sprintf("%s/%s/%v/%dB", mname, pname, kind, blockBytes)
					got, err := pp.Price(blockBytes)
					if err != nil {
						t.Fatalf("%s: profile price: %v", name, err)
					}
					want, err := m.PriceProgram(prog, layout, blockBytes)
					if err != nil {
						t.Fatalf("%s: price program: %v", name, err)
					}
					if got != want {
						t.Errorf("%s: profile price %.17g differs from PriceProgram %.17g", name, got, want)
					}
				}
			}
		}
	}
}

// TestProfilePostCopy checks the local shuffle epilogue carries over.
func TestProfilePostCopy(t *testing.T) {
	m := gpcMachine(t)
	const p = 64
	s, err := sched.Bruck(p) // Bruck ends with a local rotation
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	if prog.PostCopyBlocks == 0 {
		t.Fatal("expected Bruck to compile with a post-copy epilogue")
	}
	layout := topology.MustLayout(m.Cluster, p, topology.BlockBunch)
	pp, err := m.Profile(prog, layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{128, 8192} {
		got, err := pp.Price(size)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.PriceProgram(prog, layout, size)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("size %d: profile %.17g != price %.17g", size, got, want)
		}
	}
}

// TestProfileErrors mirrors PriceProgram's validation.
func TestProfileErrors(t *testing.T) {
	m := gpcMachine(t)
	s, err := sched.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Profile(prog, make([]int, 4)); err == nil {
		t.Error("short layout accepted")
	}
	layout := topology.MustLayout(m.Cluster, 16, topology.BlockBunch)
	pp, err := m.Profile(prog, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Price(0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := pp.Price(-1); err == nil {
		t.Error("negative block size accepted")
	}
}

// TestProfileScheduleEquivalence pins ProfileSchedule — the walk over an
// uncompiled schedule's own stages — to Profile over the compiled program,
// on a machine that is new for every profile (the state mapd's cold path
// prices in) and with an order-preservation prologue in play: every price
// must be == to PriceProgram's.
func TestProfileScheduleEquivalence(t *testing.T) {
	gens := map[string]func(int) (*sched.Schedule, error){
		"ring":               sched.Ring,
		"recursive-doubling": sched.RecursiveDoubling,
		"bruck":              sched.Bruck,
		"binomial-gather":    sched.BinomialGather,
		"pairwise-alltoall":  sched.PairwiseAlltoall,
		"bruck-alltoall":     sched.BruckAlltoall,
	}
	for mname, warm := range equivMachines(t) {
		const p = 64
		m := core.Identity(p)
		for i := 0; i+1 < p; i += 2 {
			m[i], m[i+1] = m[i+1], m[i]
		}
		for gname, gen := range gens {
			base, err := gen(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []sched.OrderMode{sched.NoOrderFix, sched.InitComm, sched.EndShuffle} {
				s, err := sched.WithOrderPreservation(base, m, mode)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := sched.Compile(s)
				if err != nil {
					t.Fatal(err)
				}
				layout := topology.MustLayout(warm.Cluster, p, topology.CyclicBunch)
				cold, err := NewMachine(warm.Cluster, warm.Params)
				if err != nil {
					t.Fatal(err)
				}
				pp, err := cold.ProfileSchedule(context.Background(), s, layout)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", mname, gname, mode, err)
				}
				for _, blockBytes := range []int{1, 4096, 1 << 20} {
					got, err := pp.Price(blockBytes)
					if err != nil {
						t.Fatal(err)
					}
					want, err := warm.PriceProgram(prog, layout, blockBytes)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s/%s/%v/%dB: schedule profile %.17g differs from PriceProgram %.17g",
							mname, gname, mode, blockBytes, got, want)
					}
				}
			}
		}
	}
}

// TestProfileScheduleErrors: the schedule-facing entry validates what
// Compile would have, and gives up when its context does.
func TestProfileScheduleErrors(t *testing.T) {
	m := gpcMachine(t)
	s, err := sched.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, 16, topology.BlockBunch)
	bad := *s
	bad.Stages = []sched.Stage{{Transfers: []sched.Transfer{{Src: 3, Dst: 3, N: 1}}}}
	if _, err := m.ProfileSchedule(context.Background(), &bad, layout); err == nil {
		t.Error("self-transfer schedule accepted")
	}
	if _, err := m.ProfileSchedule(context.Background(), s, layout[:4]); err == nil {
		t.Error("short layout accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ProfileSchedule(ctx, s, layout); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestFlatIndex drives the open-addressed table through several doublings
// with a deliberately clustered hash: every key must stay findable with its
// own value, and absent keys must land on an empty slot.
func TestFlatIndex(t *testing.T) {
	var idx flatIndex[uint64]
	idx.resize(flatIndexMin)
	hash := func(k uint64) uint64 { return (k % 7) << 61 } // seven home slots for everything
	const n = 5000
	for k := uint64(1); k <= n; k++ {
		s := idx.slot(k, hash(k))
		if s.hash != 0 {
			t.Fatalf("key %d found before it was put", k)
		}
		idx.put(s, k, hash(k), int32(k*3))
	}
	if idx.count != n || len(idx.slots) < 2*n || len(idx.slots)&(len(idx.slots)-1) != 0 {
		t.Fatalf("count=%d slots=%d after %d puts", idx.count, len(idx.slots), n)
	}
	for k := uint64(1); k <= n; k++ {
		if s := idx.slot(k, hash(k)); s.hash == 0 || s.key != k || s.val != int32(k*3) {
			t.Fatalf("key %d: slot %+v", k, *s)
		}
	}
	if s := idx.slot(n+1, hash(n+1)); s.hash != 0 {
		t.Errorf("absent key resolved to occupied slot %+v", *s)
	}
}
