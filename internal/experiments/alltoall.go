package experiments

import (
	"context"
	"fmt"

	"repro/internal/sched"
	"repro/internal/topology"
)

// AlltoallRow is one modelled comparison of the registry's all-to-all
// constructions at one per-pair message size: the two fat-tree-era
// heuristics (pairwise exchange and Bruck) against the torus-native
// dimension-wise round-robin, which only applies when the machine's
// interconnect fingerprints as a torus covering every rank.
type AlltoallRow struct {
	PerPairBytes int
	// Seconds per schedule; TorusNative is 0 when the machine is not a
	// rank-covering torus.
	Pairwise    float64
	Bruck       float64
	TorusNative float64
	// Winner names the cheapest priced schedule of the row.
	Winner string
}

// AlltoallSchedules prices the all-to-all schedule family on s.Machine over
// s.P ranks (block-bunch layout) at each per-pair message size. This is the
// torus-extension experiment behind the EXPERIMENTS.md all-to-all row: on a
// torus the dimension-wise round-robin — whose rounds use only direct torus
// links — beats the heuristics designed for hierarchical fat trees up to the
// store-and-forward crossover, while on a fat tree only the classic pair is
// in play.
func AlltoallSchedules(s *Setup, perPair []int) ([]AlltoallRow, error) {
	if len(perPair) == 0 {
		return nil, fmt.Errorf("experiments: empty per-pair size sweep")
	}
	fam, err := sched.FamilyAlltoall.Desc()
	if err != nil {
		return nil, err
	}
	layout, err := topology.Layout(s.Machine.Cluster, s.P, topology.BlockBunch)
	if err != nil {
		return nil, err
	}

	price := func(build func() (*sched.Schedule, error), bytes int) (float64, error) {
		sc, err := build()
		if err != nil {
			return 0, err
		}
		prof, err := s.Machine.ProfileSchedule(context.Background(), sc, layout)
		if err != nil {
			return 0, err
		}
		return prof.Price(bytes)
	}

	dims, torus := topology.TorusRankDims(s.Machine.Cluster, s.P)
	rows := make([]AlltoallRow, 0, len(perPair))
	for _, bytes := range perPair {
		if bytes <= 0 {
			return nil, fmt.Errorf("experiments: per-pair size must be positive, got %d", bytes)
		}
		row := AlltoallRow{PerPairBytes: bytes}
		if row.Pairwise, err = price(func() (*sched.Schedule, error) { return fam.Build("pairwise-alltoall", s.P) }, bytes); err != nil {
			return nil, err
		}
		if row.Bruck, err = price(func() (*sched.Schedule, error) { return fam.Build("bruck-alltoall", s.P) }, bytes); err != nil {
			return nil, err
		}
		row.Winner = "pairwise-alltoall"
		best := row.Pairwise
		if row.Bruck < best {
			row.Winner, best = "bruck-alltoall", row.Bruck
		}
		if torus {
			if row.TorusNative, err = price(func() (*sched.Schedule, error) { return fam.TorusBuilder(dims) }, bytes); err != nil {
				return nil, err
			}
			if row.TorusNative < best {
				row.Winner = "torus-native"
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
