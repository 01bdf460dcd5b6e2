package sched

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// FamilyID identifies a collective family. The numeric values are stable:
// they participate in synth table keys and in the per-family registries of
// the layers above (package synth attaches seed recipes and operators).
type FamilyID uint8

const (
	FamilyAllgather FamilyID = iota
	FamilyAllreduce
	FamilyBroadcast
	FamilyGather
	FamilyScatter
	FamilyAlltoall
)

// PayloadKind declares how a family's payload size maps onto a schedule's
// block space — the one sizing convention every layer (synth pricing,
// selection-table bucketing, the executor's buffer math) must agree on.
type PayloadKind uint8

const (
	// PayloadBlock: the payload is one per-rank block (allgather, gather,
	// scatter); the priced block is the payload itself.
	PayloadBlock PayloadKind = iota
	// PayloadBuffer: the payload is the whole buffer, split evenly over the
	// schedule's block space (allreduce, broadcast).
	PayloadBuffer
	// PayloadPerPair: the payload is one rank's send buffer of P per-pair
	// blocks (all-to-all); the priced block — and the selection-table size
	// bucket — is payload/P, so table entries transfer across rank counts.
	PayloadPerPair
)

// Builder constructs a family schedule over p ranks.
type Builder func(p int) (*Schedule, error)

// Family is one collective family's registry entry: everything the layers
// above need to route a family without a per-family switch. Adding a family
// is one RegisterFamily call (plus the per-layer hook registrations in
// synth/collective) instead of five switch edits.
type Family struct {
	ID   FamilyID
	Name string
	// Payload selects the payload-to-block sizing convention.
	Payload PayloadKind
	// Verify is the family's possession-replay correctness contract.
	// Rooted families verify against the schedule's own Root.
	Verify func(*Schedule) error
	// Builders maps base-builder names (the synth Recipe.Alg vocabulary) to
	// constructors.
	Builders map[string]Builder
	// Baseline names the builder the hand-coded front-door rules select for
	// (p, payloadBytes) — the comparison point every search prices.
	Baseline func(p, payloadBytes int) string
	// Seeds lists the builder names seeded into a synth search, in
	// deterministic order. Family-specific seeds that need machine context
	// (hierarchical radixes, torus dimensions) attach via synth's hooks.
	Seeds []string
	// TorusBuilder, when non-nil, builds the family's torus-native
	// dimension-wise schedule for ranks numbered x-fastest over dims.
	TorusBuilder func(dims []int) (*Schedule, error)
	// Pipelined, when non-nil, builds the family's chunk-pipelined variant —
	// the family-specific Repeat-count operator the synth searcher probes.
	Pipelined func(p, chunks int) (*Schedule, error)
}

// Build constructs the named base schedule over p ranks.
func (f *Family) Build(name string, p int) (*Schedule, error) {
	b, ok := f.Builders[name]
	if !ok {
		return nil, fmt.Errorf("sched: family %q has no base builder %q", f.Name, name)
	}
	return b(p)
}

// BuildCached returns the compiled program of the named base schedule over p
// ranks from the process-wide program table — the form runtime front doors
// consume. The key is (family, builder, p): a warm call is one lookup, a
// cold one builds and compiles the schedule once however many ranks race.
func (f *Family) BuildCached(name string, p int) (*Program, error) {
	return programsByBuilder.Get(builderKey{f.ID, name, p}, func() (*Program, error) {
		s, err := f.Build(name, p)
		if err != nil {
			return nil, err
		}
		return Compile(s)
	})
}

// BuilderNames returns the family's base-builder names, sorted.
func (f *Family) BuilderNames() []string {
	names := make([]string, 0, len(f.Builders))
	for n := range f.Builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	familiesByID   = map[FamilyID]*Family{}
	familiesByName = map[string]*Family{}
)

// RegisterFamily installs a family descriptor. Registration happens at init
// time (this package registers the built-in six); the maps are read-only
// afterwards, so lookups need no locking. Duplicate IDs or names panic —
// they are programming errors, not runtime conditions.
func RegisterFamily(f *Family) {
	if _, dup := familiesByID[f.ID]; dup {
		panic(fmt.Sprintf("sched: family id %d registered twice", f.ID))
	}
	if _, dup := familiesByName[f.Name]; dup {
		panic(fmt.Sprintf("sched: family name %q registered twice", f.Name))
	}
	familiesByID[f.ID] = f
	familiesByName[f.Name] = f
}

// Families returns every registered family, ascending by ID.
func Families() []*Family {
	out := make([]*Family, 0, len(familiesByID))
	for _, f := range familiesByID {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ParseFamily resolves a stable family name ("allgather", "alltoall", ...).
func ParseFamily(name string) (FamilyID, error) {
	if f, ok := familiesByName[name]; ok {
		return f.ID, nil
	}
	return 0, fmt.Errorf("sched: unknown collective family %q", name)
}

// String implements fmt.Stringer; the values are stable table keys.
func (id FamilyID) String() string {
	if f := familiesByID[id]; f != nil {
		return f.Name
	}
	return fmt.Sprintf("Family(%d)", uint8(id))
}

// Desc returns the registered descriptor, or an error naming the id.
func (id FamilyID) Desc() (*Family, error) {
	if f := familiesByID[id]; f != nil {
		return f, nil
	}
	return nil, fmt.Errorf("sched: unknown family %v", id)
}

// Verify replays s against the family's correctness contract.
func (id FamilyID) Verify(s *Schedule) error {
	f, err := id.Desc()
	if err != nil {
		return err
	}
	return f.Verify(s)
}

// BlockBytes maps a family payload size onto a schedule's priced block size
// under the family's PayloadKind convention.
func (id FamilyID) BlockBytes(s *Schedule, payloadBytes int) (int, error) {
	return id.blockBytes(s.Name, s.NumBlocks(), s.P, payloadBytes)
}

// ProgramBlockBytes is BlockBytes against an already-compiled program.
func (id FamilyID) ProgramBlockBytes(p *Program, payloadBytes int) (int, error) {
	return id.blockBytes(p.Name, p.Blocks, p.P, payloadBytes)
}

func (id FamilyID) blockBytes(name string, blocks, p, payloadBytes int) (int, error) {
	f, err := id.Desc()
	if err != nil {
		return 0, err
	}
	if payloadBytes <= 0 {
		return 0, fmt.Errorf("sched: payload must be positive, got %d", payloadBytes)
	}
	switch f.Payload {
	case PayloadBlock:
		return payloadBytes, nil
	case PayloadBuffer:
		if payloadBytes%blocks != 0 {
			return 0, fmt.Errorf("sched: %d-byte payload does not divide into %q's %d blocks",
				payloadBytes, name, blocks)
		}
		return payloadBytes / blocks, nil
	case PayloadPerPair:
		if payloadBytes%p != 0 {
			return 0, fmt.Errorf("sched: %d-byte payload does not divide into %q's %d per-pair blocks",
				payloadBytes, name, p)
		}
		return payloadBytes / p, nil
	}
	return 0, fmt.Errorf("sched: family %q has unknown payload kind %d", f.Name, f.Payload)
}

// BucketBytes returns the byte count selection tables bucket on: the payload
// itself, except for per-pair families, which bucket on payload/p so an
// entry searched at one rank count serves the same per-pair size at another.
func (id FamilyID) BucketBytes(p, payloadBytes int) int {
	if f := familiesByID[id]; f != nil && f.Payload == PayloadPerPair && p > 0 {
		per := payloadBytes / p
		if per < 1 {
			per = 1
		}
		return per
	}
	return payloadBytes
}

// PatternSpec ties a core.Pattern to its schedule builder and the mapping
// service's per-pattern defaults, replacing the per-pattern switches that
// used to live in sched.ForPattern and mapd's request compiler.
type PatternSpec struct {
	Pattern core.Pattern
	Family  FamilyID
	// Builder is the base-builder name ForPattern materialises.
	Builder string
	// Heuristic names the pattern's fine-tuned mapping heuristic selector
	// ("auto" when the pattern has no fine-tuned traversal).
	Heuristic string
	// OrderSensitive marks patterns that deliver a permuted output vector
	// under rank reordering and default to the initComm order fix.
	OrderSensitive bool
	// FamilyDefault marks patterns that name the collective itself rather
	// than one specific algorithm of it ("alltoall", unlike "ring"). Only
	// these may be re-materialised with the family's topology-native builder
	// when the cluster's interconnect admits one — a request for "ring" asked
	// for the ring, not for the best allgather.
	FamilyDefault bool
}

var patternSpecs = map[core.Pattern]*PatternSpec{}

// RegisterPattern installs a pattern spec (init-time, like RegisterFamily).
func RegisterPattern(spec *PatternSpec) {
	if _, dup := patternSpecs[spec.Pattern]; dup {
		panic(fmt.Sprintf("sched: pattern %v registered twice", spec.Pattern))
	}
	patternSpecs[spec.Pattern] = spec
}

// PatternFor returns the registered spec for pat.
func PatternFor(pat core.Pattern) (*PatternSpec, bool) {
	s, ok := patternSpecs[pat]
	return s, ok
}

// ForPattern returns the standalone schedule whose communication pattern
// matches pat, sized for p ranks, through the family registry.
func ForPattern(pat core.Pattern, p int) (*Schedule, error) {
	spec, ok := patternSpecs[pat]
	if !ok {
		return nil, fmt.Errorf("sched: no schedule for pattern %v", pat)
	}
	f, err := spec.Family.Desc()
	if err != nil {
		return nil, err
	}
	return f.Build(spec.Builder, p)
}

// The switch points of the Baseline rules below — the only place they are
// written down. They are constants, not per-world knobs: MVAPICH's values are
// the only ones any caller ever used, and a world that wants a different
// choice at some size installs a synth table entry for it.
const (
	// RingThresholdBytes is the per-process allgather block size above which
	// the ring replaces recursive doubling / Bruck, the switch point the
	// paper observes in MVAPICH ("MVAPICH uses recursive doubling in this
	// range [below 1KB]... uses the ring algorithm in this range [above
	// 1KB]").
	RingThresholdBytes = 1024
	// RabenseifnerThresholdBytes is the allreduce buffer size at and above
	// which reduce-scatter + allgather replaces the binomial tree on
	// power-of-two communicators whose buffer divides into p blocks.
	RabenseifnerThresholdBytes = 32768
	// alltoallBaselinePerPair is the per-pair byte threshold up to which the
	// logarithmic Bruck exchange beats pairwise exchange (fewer rounds, more
	// volume).
	alltoallBaselinePerPair = 1024
)

func init() {
	RegisterFamily(&Family{
		ID: FamilyAllgather, Name: "allgather", Payload: PayloadBlock,
		Verify: (*Schedule).VerifyAllgather,
		Builders: map[string]Builder{
			"ring":               Ring,
			"bruck":              Bruck,
			"recursive-doubling": RecursiveDoubling,
			"neighbor-exchange":  NeighborExchange,
		},
		Baseline: func(p, payloadBytes int) string {
			switch {
			case payloadBytes > RingThresholdBytes:
				return "ring"
			case p&(p-1) == 0:
				return "recursive-doubling"
			default:
				return "bruck"
			}
		},
		Seeds:        []string{"ring", "bruck", "recursive-doubling", "neighbor-exchange"},
		TorusBuilder: TorusDimwiseAllgather,
	})
	RegisterFamily(&Family{
		ID: FamilyAllreduce, Name: "allreduce", Payload: PayloadBuffer,
		Verify: (*Schedule).VerifyAllreduce,
		Builders: map[string]Builder{
			"allreduce":                BinomialReduceBroadcast,
			"reduce-scatter-allgather": ReduceScatterAllgather,
		},
		Baseline: func(p, payloadBytes int) string {
			if p > 1 && p&(p-1) == 0 && payloadBytes%p == 0 && payloadBytes >= RabenseifnerThresholdBytes {
				return "reduce-scatter-allgather"
			}
			return "allreduce"
		},
		Seeds:        []string{"allreduce", "reduce-scatter-allgather"},
		TorusBuilder: TorusDimwiseAllreduce,
	})
	RegisterFamily(&Family{
		ID: FamilyBroadcast, Name: "bcast", Payload: PayloadBuffer,
		Verify: func(s *Schedule) error { return s.VerifyBroadcast(s.Root) },
		Builders: map[string]Builder{
			"binomial-broadcast":          func(p int) (*Schedule, error) { return BinomialBroadcast(p, 1) },
			"linear-broadcast":            func(p int) (*Schedule, error) { return LinearBroadcast(p, 1) },
			"scatter-allgather-broadcast": ScatterAllgatherBroadcast,
		},
		Baseline:  func(p, payloadBytes int) string { return "binomial-broadcast" },
		Seeds:     []string{"binomial-broadcast", "linear-broadcast", "scatter-allgather-broadcast"},
		Pipelined: PipelinedBroadcast,
	})
	RegisterFamily(&Family{
		ID: FamilyGather, Name: "gather", Payload: PayloadBlock,
		Verify: func(s *Schedule) error { return s.VerifyGather(s.Root) },
		Builders: map[string]Builder{
			"binomial-gather": BinomialGather,
			"linear-gather":   LinearGather,
		},
		Baseline: func(p, payloadBytes int) string { return "binomial-gather" },
		Seeds:    []string{"binomial-gather", "linear-gather"},
	})
	RegisterFamily(&Family{
		ID: FamilyScatter, Name: "scatter", Payload: PayloadBlock,
		Verify: func(s *Schedule) error { return s.VerifyScatter(s.Root) },
		Builders: map[string]Builder{
			"binomial-scatter": BinomialScatter,
		},
		Baseline: func(p, payloadBytes int) string { return "binomial-scatter" },
		Seeds:    []string{"binomial-scatter"},
	})
	RegisterFamily(&Family{
		ID: FamilyAlltoall, Name: "alltoall", Payload: PayloadPerPair,
		Verify: (*Schedule).VerifyAlltoall,
		Builders: map[string]Builder{
			"pairwise-alltoall": PairwiseAlltoall,
			"bruck-alltoall":    BruckAlltoall,
		},
		Baseline: func(p, payloadBytes int) string {
			if p > 0 && payloadBytes/p <= alltoallBaselinePerPair {
				return "bruck-alltoall"
			}
			return "pairwise-alltoall"
		},
		Seeds:        []string{"pairwise-alltoall", "bruck-alltoall"},
		TorusBuilder: TorusRRAlltoall,
	})

	RegisterPattern(&PatternSpec{Pattern: core.RecursiveDoubling, Family: FamilyAllgather,
		Builder: "recursive-doubling", Heuristic: "rdmh", OrderSensitive: true})
	RegisterPattern(&PatternSpec{Pattern: core.Ring, Family: FamilyAllgather,
		Builder: "ring", Heuristic: "rmh"})
	RegisterPattern(&PatternSpec{Pattern: core.BinomialBroadcast, Family: FamilyBroadcast,
		Builder: "binomial-broadcast", Heuristic: "bbmh"})
	RegisterPattern(&PatternSpec{Pattern: core.BinomialGather, Family: FamilyGather,
		Builder: "binomial-gather", Heuristic: "bgmh", OrderSensitive: true})
	RegisterPattern(&PatternSpec{Pattern: core.Alltoall, Family: FamilyAlltoall,
		Builder: "pairwise-alltoall", Heuristic: "auto", FamilyDefault: true})
}
