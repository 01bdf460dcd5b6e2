package simnet

import (
	"fmt"

	"repro/internal/sched"
)

// MaxStageLinkLoads returns, for every pricing-view stage of prog, the
// largest number of messages any single directed network link carries during
// one execution of that stage — the contention multiplier the cost model
// divides link capacity by. A schedule whose stages are link-disjoint (the
// design property of the torus direct-connect round-robin all-to-all) reports
// at most 1 everywhere; the property tests pin that here rather than
// re-deriving routes, so the assertion uses exactly the accounting the
// pricing pass uses.
func (m *Machine) MaxStageLinkLoads(prog *sched.Program, layout []int) ([]int, error) {
	if m.Cluster.Net == nil {
		return nil, fmt.Errorf("simnet: cluster has no network model to account links on")
	}
	if len(layout) < prog.P {
		return nil, fmt.Errorf("simnet: layout covers %d ranks, schedule has %d", len(layout), prog.P)
	}
	sc := m.getScratch()
	defer m.scratch.Store(sc)
	if err := sc.validateLayout(m.Cluster, layout); err != nil {
		return nil, err
	}
	out := make([]int, len(prog.Stages))
	for i := range prog.Stages {
		m.aggregateStage(sc, prog.Stages[i].Transfers, layout)
		ep := sc.epoch
		worst := 0
		// The intern table covers every link any stage so far has touched;
		// entries from other stages carry stale epochs and read as zero.
		for id := range sc.linkLoad {
			if sc.linkEpoch[id] == ep && int(sc.linkLoad[id]) > worst {
				worst = int(sc.linkLoad[id])
			}
		}
		out[i] = worst
	}
	return out, nil
}
