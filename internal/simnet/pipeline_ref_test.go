package simnet

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// The PricePipelined body the stage walk replaced, kept (renamed) as the
// oracle for TestPricePipelinedMatchesReference. Its per-stage durations
// pass, transferDurations, ran aggregateStage and transferTimeSparse on the
// machine's scratch; here it runs their dense counterparts (dense_test.go),
// aggregateLoads and transferTimeDense, so the oracle shares no pricing code
// with the walk.

// refPricePipelined is the pre-walk PricePipelined.
func (m *Machine) refPricePipelined(s *sched.Schedule, layout []int, blockBytes int) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if len(layout) < s.P {
		return 0, fmt.Errorf("simnet: layout covers %d ranks, schedule has %d", len(layout), s.P)
	}
	if blockBytes <= 0 {
		return 0, fmt.Errorf("simnet: block size must be positive, got %d", blockBytes)
	}
	if err := topology.ValidateLayout(m.Cluster, layout); err != nil {
		return 0, err
	}
	ready := make([]float64, s.P)
	var snapshot, durations []float64
	for _, stages := range [][]sched.Stage{s.Pre, s.Stages} {
		for i := range stages {
			st := &stages[i]
			if len(st.Transfers) == 0 {
				continue
			}
			// Per-transfer durations are repeat-invariant: compute once.
			var err error
			if durations, err = m.refTransferDurations(durations[:0], st.Transfers, layout, blockBytes); err != nil {
				return 0, err
			}
			for rep := st.Repeats(); rep > 0; rep-- {
				snapshot = append(snapshot[:0], ready...)
				for ti, tr := range st.Transfers {
					start := snapshot[tr.Src]
					if snapshot[tr.Dst] > start {
						start = snapshot[tr.Dst]
					}
					comp := start + durations[ti]
					if comp > ready[tr.Src] {
						ready[tr.Src] = comp
					}
					if comp > ready[tr.Dst] {
						ready[tr.Dst] = comp
					}
				}
			}
		}
	}
	total := 0.0
	for _, r := range ready {
		if r > total {
			total = r
		}
	}
	if s.PostCopyBlocks > 0 {
		total += float64(s.PostCopyBlocks) * float64(blockBytes) / m.Params.MemCopy
	}
	return total, nil
}

// refTransferDurations appends to dst the time of every transfer of one
// stage under the stage's aggregated loads.
func (m *Machine) refTransferDurations(dst []float64, transfers []sched.Transfer, layout []int, blockBytes int) ([]float64, error) {
	loads := newStageLoads()
	m.aggregateLoads(transfers, layout, loads)
	var routeBuf []topology.DirLink
	for i := range transfers {
		t, err := m.transferTimeDense(&transfers[i], layout, blockBytes, loads, &routeBuf)
		if err != nil {
			return nil, err
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// TestPricePipelinedMatchesReference pins PricePipelined, a visitor of the
// one stage walk, to the body it replaced with ==, over the equivalence
// matrix (three network classes, the allgather family, three layouts, two
// sizes) plus a hierarchical composition and an order-fixed recursive
// doubling, whose Pre stage the walk visits first.
func TestPricePipelinedMatchesReference(t *testing.T) {
	layouts := []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter, topology.CyclicBunch}
	for mname, m := range equivMachines(t) {
		p := m.Cluster.TotalCores() / 2
		if p > 512 {
			p = 512
		}
		schedules := map[string]*sched.Schedule{}
		for name, prog := range equivPrograms(t, p) {
			schedules[name] = prog.Schedule()
		}
		mapping := make(core.Mapping, p)
		for r := range mapping {
			mapping[r] = (r * 3) % p
		}
		fixed, err := sched.WithOrderPreservation(schedules["recursive-doubling"], mapping, sched.InitComm)
		if err != nil {
			t.Fatal(err)
		}
		schedules["recursive-doubling+init-comm"] = fixed
		// Node groups of the blocked layout: the contiguous runs the
		// inter-leader ring requires.
		groups := sched.Groups(topology.MustLayout(m.Cluster, p, topology.BlockBunch), m.Cluster.NodeOf)
		if schedules["hierarchical"], err = sched.Hierarchical(groups, sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRing}); err != nil {
			t.Fatal(err)
		}
		for _, kind := range layouts {
			layout := topology.MustLayout(m.Cluster, p, kind)
			for sname, s := range schedules {
				for _, blockBytes := range []int{64, 64 * 1024} {
					got, err := m.PricePipelined(s, layout, blockBytes)
					if err != nil {
						t.Fatal(err)
					}
					want, err := m.refPricePipelined(s, layout, blockBytes)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s/%s/%v/%dB: PricePipelined %.17g differs from the reference %.17g",
							mname, sname, kind, blockBytes, got, want)
					}
				}
			}
		}
	}
}
