package simnet

import (
	"context"
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
	out := make([]int, 0, prog.NumPriceStages())
	err := m.walk(context.Background(), prog.Schedule(), layout, 1, func(costLine) {}, func(sc *priceScratch, _ int, _ *sched.Stage) error {
		worst := 0
		// The intern table covers every link any stage so far has touched;
		// entries from other stages carry stale epochs and read as zero.
		for id := range sc.linkLoad {
			if sc.linkEpoch[id] == sc.epoch && int(sc.linkLoad[id]) > worst {
				worst = int(sc.linkLoad[id])
			}
		}
		out = append(out, worst)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
