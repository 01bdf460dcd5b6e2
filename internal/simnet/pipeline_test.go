package simnet

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

func TestPipelinedNeverExceedsBarrier(t *testing.T) {
	m := gpcMachine(t)
	layouts := []topology.LayoutKind{topology.BlockBunch, topology.CyclicBunch}
	builders := []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) { return sched.RecursiveDoubling(256) },
		func() (*sched.Schedule, error) { return sched.Ring(256) },
		func() (*sched.Schedule, error) { return sched.Bruck(256) },
		func() (*sched.Schedule, error) { return sched.BinomialGather(256) },
	}
	for _, kind := range layouts {
		layout := topology.MustLayout(m.Cluster, 256, kind)
		for _, build := range builders {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			for _, bytes := range []int{64, 65536} {
				barrier, err := m.Price(s, layout, bytes)
				if err != nil {
					t.Fatal(err)
				}
				pipe, err := m.PricePipelined(s, layout, bytes)
				if err != nil {
					t.Fatal(err)
				}
				if pipe > barrier*(1+1e-9) {
					t.Errorf("%s/%v/%dB: pipelined %g exceeds barrier %g", s.Name, kind, bytes, pipe, barrier)
				}
				if pipe <= 0 {
					t.Errorf("%s: non-positive pipelined price", s.Name)
				}
			}
		}
	}
}

func TestPipelinedEqualsBarrierForSingleStage(t *testing.T) {
	m := testMachine(t)
	layout := topology.MustLayout(m.Cluster, 8, topology.BlockBunch)
	s, err := sched.LinearGather(8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Price(s, layout, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.PricePipelined(s, layout, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if diff := a - b; diff > a*1e-12 || diff < -a*1e-12 {
		t.Errorf("single stage: barrier %g != pipelined %g", a, b)
	}
}

func TestPipelinedOverlapsIndependentChains(t *testing.T) {
	// Two stages whose slow transfers touch disjoint rank pairs: with a
	// barrier the slow legs serialise (2x inter-node time); without it the
	// second pair's slow leg starts immediately after its own cheap stage-1
	// work and overlaps the first pair's slow leg.
	m := gpcMachine(t)
	// Two disjoint inter-node pairs. Pair A moves its heavy payload in
	// stage 1, pair B in stage 2; each pair's other stage is a small
	// message. Chains: A = heavy+light, B = light+heavy — both shorter
	// than the barrier's heavy+heavy.
	layout := []int{0, 8, 16, 24} // four distinct nodes
	s := &sched.Schedule{Name: "staggered", P: 4, Stages: []sched.Stage{
		{Transfers: []sched.Transfer{
			{Src: 0, Dst: 1, N: 16, Mode: sched.All}, // heavy
			{Src: 2, Dst: 3, N: 1, Mode: sched.All},  // light
		}},
		{Transfers: []sched.Transfer{
			{Src: 2, Dst: 3, N: 16, Mode: sched.All}, // heavy
			{Src: 0, Dst: 1, N: 1, Mode: sched.All},  // light
		}},
	}}
	const bytes = 256 * 1024
	barrier, err := m.Price(s, layout, bytes)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := m.PricePipelined(s, layout, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if pipe >= barrier {
		t.Errorf("no pipelining benefit: %g vs %g", pipe, barrier)
	}
}

func TestPipelinedRingMatchesBarrierSteadyState(t *testing.T) {
	// The ring is a closed dependency chain: every repeat couples each rank
	// to its neighbours, so the slowest hop gates the whole pipeline and
	// removing the barrier buys (asymptotically) nothing — a property, not
	// a bug, of both models.
	m := gpcMachine(t)
	layout := topology.MustLayout(m.Cluster, 64, topology.BlockBunch)
	s, err := sched.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := m.Price(s, layout, 65536)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := m.PricePipelined(s, layout, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if pipe < barrier*0.8 {
		t.Errorf("ring pipelined %g unexpectedly far below barrier %g", pipe, barrier)
	}
}

func TestPipelinedPreservesReorderingConclusion(t *testing.T) {
	// Model ablation: the paper's headline (reordering repairs a cyclic
	// ring) must hold under the pipelined model too.
	m := gpcMachine(t)
	p := 512
	s, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	cyc := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)
	ideal := topology.MustLayout(m.Cluster, p, topology.BlockBunch)
	cycT, err := m.PricePipelined(s, cyc, 65536)
	if err != nil {
		t.Fatal(err)
	}
	idealT, err := m.PricePipelined(s, ideal, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if idealT >= cycT {
		t.Errorf("pipelined model lost the layout effect: ideal %g vs cyclic %g", idealT, cycT)
	}
	if cycT < 2*idealT {
		t.Errorf("cyclic penalty too small under pipelined model: %g vs %g", cycT, idealT)
	}
}

func TestPipelinedErrors(t *testing.T) {
	m := testMachine(t)
	s, _ := sched.Ring(8)
	layout := topology.MustLayout(m.Cluster, 8, topology.BlockBunch)
	if _, err := m.PricePipelined(s, layout, 0); err == nil {
		t.Error("zero block size accepted")
	}
	for name, bad := range badLayouts(m, layout) {
		if _, err := m.PricePipelined(s, bad, 64); err == nil {
			t.Errorf("%s layout accepted", name)
		}
	}
	s.Stages[0].Transfers[0].N = -1
	if _, err := m.PricePipelined(s, layout, 64); err == nil {
		t.Error("invalid schedule accepted")
	}
}
