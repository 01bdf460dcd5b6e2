package experiments

import (
	"context"
	"fmt"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/hwdisc"
	"repro/internal/sched"
	"repro/internal/topology"
)

// AppResult is one bar of the application figures: the normalised execution
// time of the application under a mapper (default = 1.0).
type AppResult struct {
	Variant    string
	Normalized float64
}

// Fig5Panel is one application sub-figure for the non-hierarchical approach.
type Fig5Panel struct {
	Layout  topology.LayoutKind
	Results []AppResult
}

// Fig5 reproduces paper Fig. 5: end-to-end execution time of the
// allgather-heavy application (358 MPI_Allgather calls at 1024 processes)
// with non-hierarchical topology-aware allgather, normalised to the default
// mapping, for the four initial layouts. Only the extra-initial-
// communications mechanism is used, as in the paper ("we only use extra
// initial communications ... as it was shown to outperform memory
// shuffling").
func Fig5(s *Setup, cfg app.Config) ([]Fig5Panel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []Fig5Panel
	for _, kind := range topology.AllLayouts {
		layout, err := topology.Layout(s.Machine.Cluster, cfg.Procs, kind)
		if err != nil {
			return nil, err
		}
		d, err := s.distancesForLayout(layout)
		if err != nil {
			return nil, err
		}
		pat := patternForSize(cfg.Procs, cfg.MsgBytes)
		schedule, err := sched.ForPattern(pat, cfg.Procs)
		if err != nil {
			return nil, err
		}
		def, err := s.Machine.ProfileSchedule(context.Background(), schedule, layout)
		if err != nil {
			return nil, err
		}
		defLat, err := def.Price(cfg.MsgBytes)
		if err != nil {
			return nil, err
		}
		defTotal := cfg.ModeledTime(defLat, 0)

		panel := Fig5Panel{Layout: kind}
		for _, mp := range []Mapper{MapperHeuristic, MapperScotch} {
			m, err := mappingFor(mp, pat, d)
			if err != nil {
				return nil, err
			}
			re, err := s.Machine.ProfileReordered(context.Background(), schedule, layout, m, sched.InitComm)
			if err != nil {
				return nil, err
			}
			lat, err := re.Price(cfg.MsgBytes)
			if err != nil {
				return nil, err
			}
			overhead, err := s.reorderOverhead(layout, mp, pat, d)
			if err != nil {
				return nil, err
			}
			total := cfg.ModeledTime(lat, overhead)
			panel.Results = append(panel.Results, AppResult{
				Variant:    mp.String(),
				Normalized: total / defTotal,
			})
		}
		out = append(out, panel)
	}
	return out, nil
}

// reorderOverhead models the one-time cost a reordered run pays before its
// first collective: physical-distance discovery (Fig. 7a) plus the wall
// clock of actually computing the mapping (Fig. 7b) — measured, not
// modelled, since the mapping runs for real in this reproduction.
func (s *Setup) reorderOverhead(layout []int, mp Mapper, pat core.Pattern, d *topology.Distances) (float64, error) {
	disc, err := hwdisc.Discover(s.Machine.Cluster, layout, hwdisc.DefaultCostModel())
	if err != nil {
		return 0, err
	}
	elapsed, err := timeMapping(mp, pat, d)
	if err != nil {
		return 0, err
	}
	return disc.Elapsed.Seconds() + elapsed.Seconds(), nil
}

// Fig6Panel is one application sub-figure for the hierarchical approach.
type Fig6Panel struct {
	Layout  topology.LayoutKind
	Intra   sched.IntraKind
	Results []AppResult
}

// Fig6 reproduces paper Fig. 6: the application study with hierarchical
// topology-aware allgather under block-bunch and block-scatter layouts with
// non-linear and linear intra-node phases.
func Fig6(s *Setup, cfg app.Config) ([]Fig6Panel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []Fig6Panel
	for _, intra := range []sched.IntraKind{sched.NonLinear, sched.Linear} {
		for _, kind := range []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter} {
			h, err := s.newHierPricer(kind, intra, cfg.Procs)
			if err != nil {
				return nil, fmt.Errorf("fig6 %v/%v: %w", kind, intra, err)
			}
			defLat, err := h.price(MapperNone, sched.NoOrderFix, cfg.MsgBytes)
			if err != nil {
				return nil, err
			}
			defTotal := cfg.ModeledTime(defLat, 0)
			panel := Fig6Panel{Layout: kind, Intra: intra}
			suffix := "-NL"
			if intra == sched.Linear {
				suffix = "-L"
			}
			d, err := s.distancesForLayout(h.layout)
			if err != nil {
				return nil, err
			}
			for _, mp := range []Mapper{MapperHeuristic, MapperScotch} {
				lat, err := h.price(mp, sched.InitComm, cfg.MsgBytes)
				if err != nil {
					return nil, err
				}
				overhead, err := s.reorderOverhead(h.layout, mp, patternForSize(h.g, cfg.MsgBytes), d)
				if err != nil {
					return nil, err
				}
				total := cfg.ModeledTime(lat, overhead)
				panel.Results = append(panel.Results, AppResult{
					Variant:    mp.String() + suffix,
					Normalized: total / defTotal,
				})
			}
			out = append(out, panel)
		}
	}
	return out, nil
}
