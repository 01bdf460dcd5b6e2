package simnet

import "repro/internal/sched"

// PricePipelined prices a schedule without the global stage barrier that
// Price assumes: each rank proceeds to its next transfer as soon as its own
// dependencies complete, so fast chains overtake slow ones (ring pipelining,
// staggered tree levels). Per-transfer durations still use the stage's
// static contention loads — the same channels are busy in steady state — so
// the difference between Price and PricePipelined isolates the barrier
// assumption itself. It is a model ablation: the paper's conclusions should
// not (and, per the benchmark, do not) depend on which variant prices the
// schedules.
//
// The result is never larger than Price's for the same inputs.
func (m *Machine) PricePipelined(s *sched.Schedule, layout []int, blockBytes int) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if _, err := m.Price(s, layout, blockBytes); err != nil {
		return 0, err // reuse Price's argument validation
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
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
			if durations, err = m.transferDurations(sc, durations[:0], st.Transfers, layout, blockBytes); err != nil {
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

// transferDurations appends to dst the time of every transfer of one stage
// under the stage's aggregated loads, on the same sparse accounting
// PriceProgram uses.
func (m *Machine) transferDurations(sc *priceScratch, dst []float64, transfers []sched.Transfer, layout []int, blockBytes int) ([]float64, error) {
	m.aggregateStage(sc, transfers, layout)
	for i := range transfers {
		t, err := m.transferTimeSparse(sc, transfers, i, layout, blockBytes)
		if err != nil {
			return nil, err
		}
		dst = append(dst, t)
	}
	return dst, nil
}
