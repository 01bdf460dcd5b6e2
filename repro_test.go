package repro

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/synth"
)

func TestPlanAndSpeedup(t *testing.T) {
	cluster := GPC()
	layout, err := NewLayout(cluster, 512, CyclicBunch)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(cluster, layout, Ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.DiscoveryTime <= 0 || plan.MappingTime <= 0 {
		t.Errorf("missing overheads: %v %v", plan.DiscoveryTime, plan.MappingTime)
	}
	m, err := NewMachine(cluster, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	def, re, imp, err := plan.Speedup(m, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if !(def > 0 && re > 0) {
		t.Fatalf("non-positive latencies: %g %g", def, re)
	}
	if imp < 50 {
		t.Errorf("cyclic ring repair improvement = %.1f%%, want large", imp)
	}
}

func TestPlanIdealLayoutNoDegradation(t *testing.T) {
	cluster := GPC()
	layout, err := NewLayout(cluster, 512, BlockBunch)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(cluster, layout, Ring)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cluster, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	_, _, imp, err := plan.Speedup(m, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if imp < -0.5 {
		t.Errorf("reordering degraded an ideal layout by %.2f%%", -imp)
	}
}

func TestPlanUnknownPattern(t *testing.T) {
	cluster := GPC()
	layout, _ := NewLayout(cluster, 16, BlockBunch)
	if _, err := Plan(cluster, layout, Pattern(99)); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestScotchMapFacade(t *testing.T) {
	cluster := GPC()
	layout, _ := NewLayout(cluster, 64, CyclicScatter)
	d, err := NewDistances(cluster, layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ScotchMap(RecursiveDoubling, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndRuntimeReorderedAllgather(t *testing.T) {
	// The complete workflow on the live runtime at laptop scale: plan a
	// reordering for a small cluster, build the reordered communicator,
	// run the allgather, verify original-rank output order.
	cluster, err := NewCluster(4, 2, 2, TwoLevelFatTree(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	const p = 16
	layout, err := NewLayout(cluster, p, CyclicScatter)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(cluster, layout, RecursiveDoubling)
	if err != nil {
		t.Fatal(err)
	}
	const blk = 8
	want := make([]byte, 0, p*blk)
	for r := 0; r < p; r++ {
		for i := 0; i < blk; i++ {
			want = append(want, byte(r*7+i))
		}
	}
	err = Run(p, func(c *Comm) error {
		re, err := NewReordered(c, plan.Mapping, InitComm)
		if err != nil {
			return err
		}
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank()*7 + i)
		}
		recv := make([]byte, p*blk)
		if err := re.Allgather(send, recv, AlgRecursiveDoubling); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d: output out of order", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlanAll(t *testing.T) {
	cluster := GPC()
	layout, err := NewLayout(cluster, 128, CyclicScatter)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := PlanAll(cluster, layout, RecursiveDoubling, Ring, BinomialBroadcast, BinomialGather)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("got %d plans", len(plans))
	}
	for i, p := range plans {
		if err := p.Mapping.Validate(); err != nil {
			t.Errorf("plan %d: %v", i, err)
		}
		if p.DiscoveryTime != plans[0].DiscoveryTime {
			t.Errorf("plan %d does not share the one-time discovery", i)
		}
	}
	if _, err := PlanAll(cluster, layout); err == nil {
		t.Error("empty pattern list accepted")
	}
	if _, err := PlanAll(cluster, layout, Pattern(99)); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestFacadeAllgather(t *testing.T) {
	const p, blk = 8, 4
	err := Run(p, func(c *Comm) error {
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank())
		}
		recv := make([]byte, p*blk)
		if err := Allgather(c, send, recv, AlgAuto); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if recv[r*blk] != byte(r) {
				return fmt.Errorf("block %d wrong", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSynthTable drives the schedule-synthesis facade end to end: write
// a table with cmd/synth's library path, load it back, configure a world with
// it, and check the README's table-driven allgather sample actually works.
func TestFacadeSynthTable(t *testing.T) {
	m, err := NewMachine(GPC(), DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := synth.BuildTable(m, []synth.Family{synth.Allgather}, []int{16}, []int{64}, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tab.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSynthTable(path)
	if err != nil {
		t.Fatal(err)
	}
	const p, blk = 16, 64
	err = Run(p, func(c *Comm) error {
		if c.Rank() == 0 {
			Configure(c, CollectiveConfig{Synth: NewSynthSelector(loaded)})
		}
		c.Barrier()
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank())
		}
		recv := make([]byte, p*blk)
		if err := Allgather(c, send, recv, AlgAuto); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if recv[r*blk] != byte(r) {
				return fmt.Errorf("block %d wrong", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
