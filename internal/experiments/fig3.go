package experiments

import (
	"context"
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/osu"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Point is one (message size, improvement %) sample of a series.
type Point struct {
	Bytes       int
	Improvement float64 // percent over the default mapping; negative = worse
}

// Variant names one plotted curve: which mapper computed the reordering and
// which order-preservation mechanism paid for it.
type Variant struct {
	Mapper Mapper
	Order  sched.OrderMode
}

// String implements fmt.Stringer, matching the paper's legend style
// ("Hrstc+initComm").
func (v Variant) String() string { return v.Mapper.String() + "+" + v.Order.String() }

// Fig3Variants lists the four curves of each Fig. 3 panel.
var Fig3Variants = []Variant{
	{MapperHeuristic, sched.InitComm},
	{MapperHeuristic, sched.EndShuffle},
	{MapperScotch, sched.InitComm},
	{MapperScotch, sched.EndShuffle},
}

// Panel is one sub-figure: an initial layout with one improvement series per
// variant.
type Panel struct {
	Layout topology.LayoutKind
	Series map[string][]Point
}

// Fig3 reproduces paper Fig. 3: micro-benchmark improvement of
// non-hierarchical topology-aware allgather under the four initial mappings.
// The underlying algorithm follows the MVAPICH selection the paper
// describes: recursive doubling up to 1 KB, the ring beyond.
func Fig3(s *Setup) ([]Panel, error) {
	var out []Panel
	for _, kind := range topology.AllLayouts {
		panel, err := s.fig3Panel(kind)
		if err != nil {
			return nil, fmt.Errorf("fig3 %v: %w", kind, err)
		}
		out = append(out, panel)
	}
	return out, nil
}

// fig3Panel computes one layout's series.
func (s *Setup) fig3Panel(kind topology.LayoutKind) (Panel, error) {
	layout, err := topology.Layout(s.Machine.Cluster, s.P, kind)
	if err != nil {
		return Panel{}, err
	}
	d, err := s.distancesForLayout(layout)
	if err != nil {
		return Panel{}, err
	}

	// One profile per (pattern, layout) and one per (variant, pattern), so
	// each size is a read of two profiles.
	type profiles struct {
		def      *simnet.PriceProfile
		variants []*simnet.PriceProfile // parallel to Fig3Variants
	}
	pats := []core.Pattern{core.Ring}
	if s.P&(s.P-1) == 0 {
		pats = append(pats, core.RecursiveDoubling)
	}
	byPattern := map[core.Pattern]*profiles{}
	ctx := context.Background()
	for _, pat := range pats {
		schedule, err := sched.ForPattern(pat, s.P)
		if err != nil {
			return Panel{}, err
		}
		mappings := map[Mapper]core.Mapping{}
		for _, mp := range []Mapper{MapperHeuristic, MapperScotch} {
			if mappings[mp], err = mappingFor(mp, pat, d); err != nil {
				return Panel{}, err
			}
		}
		pp := &profiles{variants: make([]*simnet.PriceProfile, len(Fig3Variants))}
		if pp.def, err = s.Machine.ProfileSchedule(ctx, schedule, layout); err != nil {
			return Panel{}, err
		}
		for i, v := range Fig3Variants {
			if pp.variants[i], err = s.Machine.ProfileReordered(ctx, schedule, layout, mappings[v.Mapper], v.Order); err != nil {
				return Panel{}, err
			}
		}
		byPattern[pat] = pp
	}

	panel := Panel{Layout: kind, Series: map[string][]Point{}}
	for _, size := range s.Sizes {
		pp := byPattern[patternForSize(s.P, size)]
		for i, v := range Fig3Variants {
			gain, err := improvement(pp.def, pp.variants[i], size)
			if err != nil {
				return Panel{}, err
			}
			panel.Series[v.String()] = append(panel.Series[v.String()], Point{Bytes: size, Improvement: gain})
		}
	}
	return panel, nil
}

// improvement reads the default and the reordered profile at one size and
// returns the reordering's gain in percent.
func improvement(def, reordered *simnet.PriceProfile, size int) (float64, error) {
	d, err := def.Price(size)
	if err != nil {
		return 0, err
	}
	r, err := reordered.Price(size)
	if err != nil {
		return 0, err
	}
	return osu.Improvement(d, r), nil
}

// patternForSize mirrors the MVAPICH algorithm selection of the paper's
// testbed (Section VI-A1): recursive doubling for messages up to 1 KB on
// power-of-two communicators, ring beyond (and for non-power-of-two counts,
// where the paper's recursive doubling does not apply).
func patternForSize(p, size int) core.Pattern {
	if size <= collective.RingThresholdBytes && p&(p-1) == 0 {
		return core.RecursiveDoubling
	}
	return core.Ring
}
