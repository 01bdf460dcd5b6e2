package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/osu"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Fig4Panel is one sub-figure of the hierarchical study: a (layout, intra
// kind) combination with one improvement series per variant.
type Fig4Panel struct {
	Layout topology.LayoutKind
	Intra  sched.IntraKind
	Series map[string][]Point
}

// Fig4 reproduces paper Fig. 4: micro-benchmark improvement of hierarchical
// topology-aware allgather under block-bunch and block-scatter initial
// mappings with non-linear and linear intra-node phases. (The paper notes
// hierarchical allgather is not supported with cyclic mappings.)
func Fig4(s *Setup) ([]Fig4Panel, error) {
	var out []Fig4Panel
	for _, intra := range []sched.IntraKind{sched.NonLinear, sched.Linear} {
		for _, kind := range []topology.LayoutKind{topology.BlockBunch, topology.BlockScatter} {
			p, err := s.fig4Panel(kind, intra)
			if err != nil {
				return nil, fmt.Errorf("fig4 %v/%v: %w", kind, intra, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// hierPricer prices the three hierarchical phases separately so that each
// phase can run under its own rank reordering, mirroring the paper's
// per-pattern reordered communicators. Every phase and every order fix is
// one price profile built with the pricer, so a size is a read of a few.
type hierPricer struct {
	layout      []int
	groups      [][]int
	leaderCores []int
	k, g        int
	intra       sched.IntraKind
	pats        []core.Pattern // leader-phase patterns that apply at g

	phases map[Mapper]*hierPhases
}

// hierPhases is one mapper's phase profiles; fix holds the order fix of
// each (inter pattern, order mode) whose composition needs one.
type hierPhases struct {
	gather, bcast *simnet.PriceProfile
	leader        map[core.Pattern]*simnet.PriceProfile
	fix           map[fixKey]*simnet.PriceProfile
}

type fixKey struct {
	pat   core.Pattern
	order sched.OrderMode
}

// newHierPricer profiles the hierarchical allgather of procs ranks laid out
// by kind under every mapper.
func (s *Setup) newHierPricer(kind topology.LayoutKind, intra sched.IntraKind, procs int) (*hierPricer, error) {
	c := s.Machine.Cluster
	layout, err := topology.Layout(c, procs, kind)
	if err != nil {
		return nil, err
	}
	groups := sched.Groups(layout, c.NodeOf)
	h := &hierPricer{
		layout: layout, groups: groups,
		k: len(groups[0]), g: len(groups), intra: intra,
		pats:   []core.Pattern{core.Ring},
		phases: map[Mapper]*hierPhases{},
	}
	if h.g&(h.g-1) == 0 {
		h.pats = append(h.pats, core.RecursiveDoubling)
	}
	h.leaderCores = make([]int, h.g)
	for gi, grp := range groups {
		h.leaderCores[gi] = layout[grp[0]]
	}
	gather, err := sched.IntraPhase(groups, intra, true)
	if err != nil {
		return nil, err
	}
	bcast, err := sched.IntraPhase(groups, intra, false)
	if err != nil {
		return nil, err
	}
	inter := map[core.Pattern]*sched.Schedule{}
	for _, pat := range h.pats {
		if inter[pat], err = sched.ForPattern(pat, h.g); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	endShuffle, err := s.Machine.ProfileSchedule(ctx, sched.EndShuffleSchedule(procs), layout)
	if err != nil {
		return nil, err
	}
	for _, mp := range []Mapper{MapperNone, MapperHeuristic, MapperScotch} {
		gm, bm, lms, err := h.mappings(c, mp)
		if err != nil {
			return nil, err
		}
		ph := &hierPhases{leader: map[core.Pattern]*simnet.PriceProfile{}, fix: map[fixKey]*simnet.PriceProfile{}}
		if ph.gather, err = s.Machine.ProfileReordered(ctx, gather, layout, gm, sched.NoOrderFix); err != nil {
			return nil, err
		}
		if ph.bcast, err = s.Machine.ProfileReordered(ctx, bcast, layout, bm, sched.NoOrderFix); err != nil {
			return nil, err
		}
		for _, pat := range h.pats {
			if ph.leader[pat], err = s.Machine.ProfileReordered(ctx, inter[pat], h.leaderCores, lms[pat], sched.NoOrderFix); err != nil {
				return nil, err
			}
			comp := h.compositeMapping(gm, lms[pat])
			if mp == MapperNone || !h.needsOrderFix(pat) || comp.IsIdentity() {
				continue
			}
			if ph.fix[fixKey{pat, sched.InitComm}], err = s.Machine.ProfileReordered(ctx, sched.InitCommSchedule(comp), layout, comp, sched.NoOrderFix); err != nil {
				return nil, err
			}
			ph.fix[fixKey{pat, sched.EndShuffle}] = endShuffle
		}
		h.phases[mp] = ph
	}
	return h, nil
}

// mappings computes one mapper's phase reorderings on cluster c (identity
// for MapperNone): the gather and broadcast mappings, every node's composed
// into one over all ranks, and one leader mapping per inter pattern.
func (h *hierPricer) mappings(c *topology.Cluster, mp Mapper) (gather, bcast core.Mapping, leader map[core.Pattern]core.Mapping, err error) {
	gather, bcast = make(core.Mapping, len(h.layout)), make(core.Mapping, len(h.layout))
	for _, grp := range h.groups {
		gm, bm := core.Identity(len(grp)), core.Identity(len(grp))
		// Linear intra phases expose no pattern to optimise (paper Section
		// VI-A2): identity mappings.
		if mp != MapperNone && h.intra != sched.Linear {
			cores := make([]int, len(grp))
			for j, r := range grp {
				cores[j] = h.layout[r]
			}
			d, err := topology.NewDistances(c, cores)
			if err != nil {
				return nil, nil, nil, err
			}
			if gm, err = mappingFor(mp, core.BinomialGather, d); err != nil {
				return nil, nil, nil, err
			}
			if bm, err = mappingFor(mp, core.BinomialBroadcast, d); err != nil {
				return nil, nil, nil, err
			}
		}
		for j, r := range grp {
			gather[r], bcast[r] = grp[gm[j]], grp[bm[j]]
		}
	}
	ld, err := topology.NewDistances(c, h.leaderCores)
	if err != nil {
		return nil, nil, nil, err
	}
	leader = map[core.Pattern]core.Mapping{}
	for _, pat := range h.pats {
		if leader[pat], err = mappingFor(mp, pat, ld); err != nil {
			return nil, nil, nil, err
		}
	}
	return gather, bcast, leader, nil
}

// needsOrderFix reports whether the reordered configuration must pay an
// order-preservation cost: non-linear intra phases (the binomial gather
// permutes node blocks) and recursive-doubling leader phases do; a purely
// linear+ring composition resolves order in place.
func (h *hierPricer) needsOrderFix(interPat core.Pattern) bool {
	return h.intra == sched.NonLinear || interPat == core.RecursiveDoubling
}

// compositeMapping builds the global output permutation implied by the
// gather-phase and leader-phase mappings, for pricing the initComm fix.
func (h *hierPricer) compositeMapping(gather, leader core.Mapping) core.Mapping {
	m := make(core.Mapping, len(h.layout))
	for gNew := 0; gNew < h.g; gNew++ {
		for jNew, r := range h.groups[leader[gNew]] {
			m[gNew*h.k+jNew] = gather[r]
		}
	}
	return m
}

// price returns the modelled hierarchical allgather time for one mapper and
// order mode at message size msgBytes.
func (h *hierPricer) price(mp Mapper, order sched.OrderMode, msgBytes int) (float64, error) {
	interPat := patternForSize(h.g, msgBytes)
	ph := h.phases[mp]
	t1, err := ph.gather.Price(msgBytes)
	if err != nil {
		return 0, err
	}
	t2, err := ph.leader[interPat].Price(h.k * msgBytes)
	if err != nil {
		return 0, err
	}
	t3, err := ph.bcast.Price(msgBytes)
	if err != nil {
		return 0, err
	}
	total := t1 + t2 + t3
	if fix := ph.fix[fixKey{interPat, order}]; fix != nil {
		t, err := fix.Price(msgBytes)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// fig4Panel computes one (layout, intra) panel.
func (s *Setup) fig4Panel(kind topology.LayoutKind, intra sched.IntraKind) (Fig4Panel, error) {
	h, err := s.newHierPricer(kind, intra, s.P)
	if err != nil {
		return Fig4Panel{}, err
	}
	panel := Fig4Panel{Layout: kind, Intra: intra, Series: map[string][]Point{}}
	for _, size := range s.Sizes {
		def, err := h.price(MapperNone, sched.NoOrderFix, size)
		if err != nil {
			return Fig4Panel{}, err
		}
		for _, v := range Fig3Variants {
			re, err := h.price(v.Mapper, v.Order, size)
			if err != nil {
				return Fig4Panel{}, err
			}
			suffix := "-NL"
			if intra == sched.Linear {
				suffix = "-L"
			}
			name := v.Mapper.String() + suffix + "+" + v.Order.String()
			panel.Series[name] = append(panel.Series[name],
				Point{Bytes: size, Improvement: osu.Improvement(def, re)})
		}
	}
	return panel, nil
}
