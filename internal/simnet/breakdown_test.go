package simnet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

func TestExplainMatchesPrice(t *testing.T) {
	m := gpcMachine(t)
	layout := topology.MustLayout(m.Cluster, 256, topology.CyclicBunch)
	for _, build := range []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) { return sched.RecursiveDoubling(256) },
		func() (*sched.Schedule, error) { return sched.Ring(256) },
		func() (*sched.Schedule, error) { return sched.Bruck(256) },
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		price, err := m.Price(s, layout, 4096)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Explain(s, layout, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b.Total-price) > price*1e-12 {
			t.Errorf("%s: Explain total %g != Price %g", s.Name, b.Total, price)
		}
	}
}

func TestExplainMarksPreStages(t *testing.T) {
	m := gpcMachine(t)
	layout := topology.MustLayout(m.Cluster, 64, topology.CyclicBunch)
	s, err := sched.RecursiveDoubling(64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := topology.NewDistances(m.Cluster, layout)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := core.RDMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sched.WithOrderPreservation(s, mp, sched.InitComm)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := mp.Apply(layout)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Explain(ws, eff, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Stages[0].Pre {
		t.Error("first stage should be the initComm prologue")
	}
	if b.Stages[len(b.Stages)-1].Pre {
		t.Error("main stages mislabelled as pre")
	}
	text := b.String()
	for _, want := range []string{"stage", "total:", "transfers"} {
		if !strings.Contains(text, want) {
			t.Errorf("breakdown render missing %q", want)
		}
	}
}

func TestExplainPostCopy(t *testing.T) {
	m := testMachine(t)
	s, err := sched.Bruck(8)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(m.Cluster, 8, topology.BlockBunch)
	b, err := m.Explain(s, layout, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if b.PostCopySeconds <= 0 {
		t.Error("Bruck's final rotation not reported")
	}
	if !strings.Contains(b.String(), "post-copy") {
		t.Error("post-copy missing from render")
	}
}

func TestExplainRejectsInvalid(t *testing.T) {
	m := testMachine(t)
	s, _ := sched.Ring(8)
	layout := topology.MustLayout(m.Cluster, 8, topology.BlockBunch)
	for name, bad := range badLayouts(m, layout) {
		if _, err := m.Explain(s, bad, 1024); err == nil {
			t.Errorf("%s layout accepted", name)
		}
	}
	s.Stages[0].Transfers[0].N = -1
	if _, err := m.Explain(s, layout, 1024); err == nil {
		t.Error("invalid schedule accepted")
	}
}

// badLayouts returns copies of layout that put two ranks on one core and
// one rank on a core outside m's cluster.
func badLayouts(m *Machine, layout []int) map[string][]int {
	dup := append([]int(nil), layout...)
	dup[1] = dup[0]
	outside := append([]int(nil), layout...)
	outside[len(outside)-1] = m.Cluster.TotalCores()
	return map[string][]int{"duplicate-core": dup, "out-of-range-core": outside}
}
