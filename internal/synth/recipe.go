package synth

import (
	"fmt"
	"strings"

	"repro/internal/sched"
)

// Recipe is a serializable construction of a candidate schedule: a named
// base builder (plus hierarchical-composition parameters when the builder
// is "hierarchical") and an ordered list of stage-level mutations applied
// after materialisation. A recipe is the unit the search mutates and the
// unit a Table persists — re-materialising a stored recipe and checking its
// schedule fingerprint proves the table entry still describes the same
// schedule the search priced.
type Recipe struct {
	// Alg names the base builder. Most names resolve through the family
	// registry's Builders map (ring, bruck, recursive-doubling,
	// neighbor-exchange, allreduce, reduce-scatter-allgather,
	// binomial-broadcast, linear-broadcast, scatter-allgather-broadcast,
	// binomial-gather, linear-gather, binomial-scatter, pairwise-alltoall,
	// bruck-alltoall); three parameterised constructions dispatch through
	// dedicated registry hooks: "hierarchical" (GroupSize/Intra/Inter),
	// "torus-native" (Dims, the family's dimension-wise torus builder) and
	// "pipelined" (Chunks, the family's chunked Repeat-count variant).
	Alg string `json:"alg"`
	// GroupSize is the hierarchical radix: ranks per node group. It must
	// divide the rank count. Only meaningful for Alg == "hierarchical".
	GroupSize int `json:"group_size,omitempty"`
	// Intra is the hierarchical intra-node kind: "linear" or "non-linear".
	Intra string `json:"intra,omitempty"`
	// Inter is the hierarchical leader-phase kind: "recursive-doubling" or
	// "ring".
	Inter string `json:"inter,omitempty"`
	// Dims is the torus dimension vector (blocked rank numbering,
	// fastest-varying first). Only meaningful for Alg == "torus-native".
	Dims []int `json:"dims,omitempty"`
	// Chunks is the pipelining chunk count. Only meaningful for
	// Alg == "pipelined"; the payload must divide by it.
	Chunks int `json:"chunks,omitempty"`
	// Ops are stage mutations applied in order to the materialised base
	// schedule.
	Ops []StageOp `json:"ops,omitempty"`
}

// StageOp is one stage-level mutation.
type StageOp struct {
	// Op is the operator: "swap" (exchange stages Stage and Stage+1),
	// "merge" (concatenate stage Stage+1's transfers into stage Stage),
	// or "split" (divide stage Stage's transfer list into two stages).
	Op string `json:"op"`
	// Stage is the main-stage index the operator applies to.
	Stage int `json:"stage"`
}

// String renders the recipe compactly, e.g.
// "hierarchical(g=8,linear,ring)~merge2".
func (r Recipe) String() string {
	var sb strings.Builder
	sb.WriteString(r.Alg)
	switch r.Alg {
	case "hierarchical":
		fmt.Fprintf(&sb, "(g=%d,%s,%s)", r.GroupSize, r.Intra, r.Inter)
	case "torus-native":
		parts := make([]string, len(r.Dims))
		for i, n := range r.Dims {
			parts[i] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(&sb, "(%s)", strings.Join(parts, "x"))
	case "pipelined":
		fmt.Fprintf(&sb, "(chunks=%d)", r.Chunks)
	}
	for _, op := range r.Ops {
		fmt.Fprintf(&sb, "~%s%d", op.Op, op.Stage)
	}
	return sb.String()
}

// parseIntra maps the serialized intra kind.
func parseIntra(s string) (sched.IntraKind, error) {
	switch s {
	case "linear":
		return sched.Linear, nil
	case "non-linear":
		return sched.NonLinear, nil
	}
	return 0, fmt.Errorf("synth: unknown intra kind %q", s)
}

// parseInter maps the serialized inter kind.
func parseInter(s string) (sched.InterKind, error) {
	switch s {
	case "recursive-doubling":
		return sched.InterRecursiveDoubling, nil
	case "ring":
		return sched.InterRing, nil
	}
	return 0, fmt.Errorf("synth: unknown inter kind %q", s)
}

// contiguousGroups splits ranks 0..p-1 into p/g contiguous groups of g,
// leader first — the node-aligned grouping of a blocked layout, and the
// contiguous-run shape the inter-leader ring requires.
func contiguousGroups(p, g int) ([][]int, error) {
	if g <= 1 || g >= p || p%g != 0 {
		return nil, fmt.Errorf("synth: group size %d does not partition %d ranks", g, p)
	}
	groups := make([][]int, 0, p/g)
	for lo := 0; lo < p; lo += g {
		grp := make([]int, g)
		for i := range grp {
			grp[i] = lo + i
		}
		groups = append(groups, grp)
	}
	return groups, nil
}

// Materialize builds the recipe's schedule for family f over p ranks: the
// base builder first, then every stage op in order. The returned schedule's
// name carries the op suffix so that fingerprints, cache keys, metrics
// labels and trace spans distinguish a mutated schedule from its base.
func (r Recipe) Materialize(f Family, p int) (*sched.Schedule, error) {
	s, err := r.base(f, p)
	if err != nil {
		return nil, err
	}
	for _, op := range r.Ops {
		if s, err = withStageOp(s, op); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// withStageOp returns s with one stage op applied and named, leaving s as it
// was: the result has its own Stages header slice and shares s's Pre and
// transfer arrays, which applyStageOp never writes (merge allocates, split
// re-slices with capped capacity) and the schedule-immutability contract
// covers. A search derives each stage-op mutant from its parent this way.
func withStageOp(s *sched.Schedule, op StageOp) (*sched.Schedule, error) {
	out := *s
	out.Stages = make([]sched.Stage, len(s.Stages), len(s.Stages)+1)
	copy(out.Stages, s.Stages)
	if err := applyStageOp(&out, op); err != nil {
		return nil, err
	}
	out.Name = fmt.Sprintf("%s~%s%d", s.Name, op.Op, op.Stage)
	return &out, nil
}

// base dispatches to the family registry's builder for the recipe's Alg.
// "hierarchical", "torus-native" and "pipelined" are the parameterised
// constructions; every other name resolves through the family's Builders
// map, so registering a family automatically makes its base builders
// recipe-addressable.
func (r Recipe) base(f Family, p int) (*sched.Schedule, error) {
	fam, err := f.Desc()
	if err != nil {
		return nil, err
	}
	switch r.Alg {
	case "hierarchical":
		groups, err := contiguousGroups(p, r.GroupSize)
		if err != nil {
			return nil, err
		}
		intra, err := parseIntra(r.Intra)
		if err != nil {
			return nil, err
		}
		inter, err := parseInter(r.Inter)
		if err != nil {
			return nil, err
		}
		s, err := sched.Hierarchical(groups, sched.HierarchicalConfig{Intra: intra, Inter: inter})
		if err != nil {
			return nil, err
		}
		// The radix participates in the identity: two group sizes produce
		// structurally different schedules that must not share a name.
		s.Name = fmt.Sprintf("%s-g%d", s.Name, r.GroupSize)
		return s, nil
	case "torus-native":
		if fam.TorusBuilder == nil {
			return nil, fmt.Errorf("synth: family %q has no torus-native builder", fam.Name)
		}
		if len(r.Dims) == 0 {
			return nil, fmt.Errorf("synth: torus-native recipe needs dims")
		}
		ranks := 1
		for _, n := range r.Dims {
			ranks *= n
		}
		if ranks != p {
			return nil, fmt.Errorf("synth: torus dims %v cover %d ranks, schedule needs %d", r.Dims, ranks, p)
		}
		return fam.TorusBuilder(r.Dims)
	case "pipelined":
		if fam.Pipelined == nil {
			return nil, fmt.Errorf("synth: family %q has no pipelined builder", fam.Name)
		}
		if r.Chunks < 2 {
			return nil, fmt.Errorf("synth: pipelined recipe needs at least 2 chunks, got %d", r.Chunks)
		}
		return fam.Pipelined(p, r.Chunks)
	default:
		return fam.Build(r.Alg, p)
	}
}

// applyStageOp mutates s in place. Structural inapplicability (index out of
// range, wrong stage shape) is an error the searcher treats as "operator
// does not apply here" — distinct from a verify failure, which means the
// mutated schedule is no longer a correct collective.
func applyStageOp(s *sched.Schedule, op StageOp) error {
	i := op.Stage
	switch op.Op {
	case "swap":
		if i < 0 || i+1 >= len(s.Stages) {
			return fmt.Errorf("synth: swap at stage %d needs stages %d and %d, schedule has %d",
				i, i, i+1, len(s.Stages))
		}
		s.Stages[i], s.Stages[i+1] = s.Stages[i+1], s.Stages[i]
		return nil
	case "merge":
		if i < 0 || i+1 >= len(s.Stages) {
			return fmt.Errorf("synth: merge at stage %d needs stages %d and %d, schedule has %d",
				i, i, i+1, len(s.Stages))
		}
		a, b := &s.Stages[i], &s.Stages[i+1]
		if a.Repeat > 1 || b.Repeat > 1 {
			return fmt.Errorf("synth: merge at stage %d: repeated stages cannot merge", i)
		}
		if a.Reduce != b.Reduce {
			return fmt.Errorf("synth: merge at stage %d: reduce and non-reduce stages cannot merge", i)
		}
		merged := sched.Stage{Reduce: a.Reduce,
			Transfers: make([]sched.Transfer, 0, len(a.Transfers)+len(b.Transfers))}
		merged.Transfers = append(merged.Transfers, a.Transfers...)
		merged.Transfers = append(merged.Transfers, b.Transfers...)
		s.Stages[i] = merged
		s.Stages = append(s.Stages[:i+1], s.Stages[i+2:]...)
		return nil
	case "split":
		if i < 0 || i >= len(s.Stages) {
			return fmt.Errorf("synth: split at stage %d outside schedule of %d stages", i, len(s.Stages))
		}
		st := &s.Stages[i]
		if len(st.Transfers) < 2 || st.Repeat > 1 {
			return fmt.Errorf("synth: split at stage %d needs an unrepeated stage with at least 2 transfers", i)
		}
		for _, tr := range st.Transfers {
			// Only Range transfers carry a timing-independent payload: All
			// and Latest payloads change when deliveries land earlier, which
			// would silently desynchronise the pricing view's static block
			// counts from the executable view.
			if tr.Mode != sched.Range {
				return fmt.Errorf("synth: split at stage %d: only Range-mode stages split safely", i)
			}
		}
		half := len(st.Transfers) / 2
		first := sched.Stage{Reduce: st.Reduce, Transfers: st.Transfers[:half:half]}
		second := sched.Stage{Reduce: st.Reduce, Transfers: st.Transfers[half:]}
		s.Stages = append(s.Stages, sched.Stage{})
		copy(s.Stages[i+2:], s.Stages[i+1:])
		s.Stages[i], s.Stages[i+1] = first, second
		return nil
	}
	return fmt.Errorf("synth: unknown stage op %q", op.Op)
}
