package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// AdaptiveDecision records, for one message size, whether the runtime should
// route a collective through the reordered communicator.
type AdaptiveDecision struct {
	Bytes        int
	Default      float64 // modelled latency of the default communicator
	Reordered    float64 // modelled latency including the order fix
	UseReordered bool
}

// AdaptivePolicy implements the paper's closing future-work idea: "a runtime
// component ... to decide whether to use the reordered communicator for a
// given collective or not based on the potential performance improvements
// that each heuristic can provide for various message sizes". It prices the
// pattern's schedule under both communicators for every size and keeps the
// reordered one only where it wins.
func AdaptivePolicy(s *Setup, layout []int, m core.Mapping, pat core.Pattern, order sched.OrderMode, sizes []int) ([]AdaptiveDecision, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("experiments: adaptive policy needs at least one size")
	}
	schedule, err := sched.ForPattern(pat, len(layout))
	if err != nil {
		return nil, err
	}
	// Both communicators' contention profiles are size-independent, so the
	// sweep aggregates each once and prices every size from the envelopes —
	// bit-identical to pricing size by size (see simnet.PriceProfile).
	defProfile, err := s.Machine.ProfileSchedule(context.Background(), schedule, layout)
	if err != nil {
		return nil, err
	}
	eff, err := m.Apply(layout)
	if err != nil {
		return nil, err
	}
	withOrder, err := sched.WithOrderPreservation(schedule, m, order)
	if err != nil {
		return nil, err
	}
	reProfile, err := s.Machine.ProfileSchedule(context.Background(), withOrder, eff)
	if err != nil {
		return nil, err
	}
	var out []AdaptiveDecision
	for _, size := range sizes {
		def, err := defProfile.Price(size)
		if err != nil {
			return nil, err
		}
		re, err := reProfile.Price(size)
		if err != nil {
			return nil, err
		}
		out = append(out, AdaptiveDecision{
			Bytes:        size,
			Default:      def,
			Reordered:    re,
			UseReordered: re < def,
		})
	}
	return out, nil
}
