package simnet

import (
	"context"

	"repro/internal/sched"
)

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
	b := float64(blockBytes)
	ready := make([]float64, s.P)
	var snapshot, durations []float64
	// Per-transfer durations are repeat-invariant: compute once per stage.
	duration := func(l costLine) { durations = append(durations, l.seconds(b)) }
	err := m.walk(context.Background(), s, layout, blockBytes, duration, func(_ *priceScratch, _ int, st *sched.Stage) error {
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
		durations = durations[:0]
		return nil
	})
	if err != nil {
		return 0, err
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
