// Package core implements the paper's primary contribution: fine-tuned
// topology-aware mapping heuristics that reorder MPI ranks so that the
// communication pattern of a collective matches the physical topology of the
// system (Mirsadeghi & Afsahi, IPDPS Workshops 2016, Section V).
//
// All heuristics are instances of the paper's Algorithm 1: fix rank 0 on its
// current core, then repeatedly (a) select the next process to map and (b)
// place it on the free core closest to a "reference core", updating the
// reference core according to a pattern-specific policy. The four shipped
// heuristics cover the communication patterns commonly used by
// MPI_Allgather:
//
//	RDMH — recursive doubling (Algorithm 2)
//	RMH  — ring              (Algorithm 3)
//	BBMH — binomial broadcast (Algorithm 4; also usable for MPI_Bcast)
//	BGMH — binomial gather    (Algorithm 5; also usable for MPI_Gather)
//
// A Mapping produced here is a permutation M with M[newRank] = slot, where
// slot i names the core that hosted initial rank i. Process layouts are
// reordered with Apply.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/topology"
)

// Mapping is the output of a mapping heuristic: M[newRank] = slot index of
// the core assigned to the process that will act as newRank in the
// reordered communicator. Slots are indexed by initial rank, i.e. slot i is
// the core that hosted rank i under the initial layout — exactly the "we
// interchangeably use process ranks to refer to the core hosting it"
// convention of the paper.
type Mapping []int

// Identity returns the mapping that leaves every rank on its current core.
func Identity(p int) Mapping {
	m := make(Mapping, p)
	for i := range m {
		m[i] = i
	}
	return m
}

// Validate reports whether m is a permutation of 0..len(m)-1.
func (m Mapping) Validate() error {
	seen := make([]bool, len(m))
	for r, slot := range m {
		if slot < 0 || slot >= len(m) {
			return fmt.Errorf("core: new rank %d mapped to slot %d outside 0..%d", r, slot, len(m)-1)
		}
		if seen[slot] {
			return fmt.Errorf("core: slot %d assigned to more than one rank", slot)
		}
		seen[slot] = true
	}
	return nil
}

// IsIdentity reports whether the mapping leaves all ranks in place.
func (m Mapping) IsIdentity() bool {
	for r, slot := range m {
		if r != slot {
			return false
		}
	}
	return true
}

// Apply computes the physical layout of the reordered communicator:
// newLayout[r] = layout[m[r]], i.e. new rank r runs on the core that
// initially hosted rank m[r].
func (m Mapping) Apply(layout []int) ([]int, error) {
	if len(layout) != len(m) {
		return nil, fmt.Errorf("core: mapping over %d ranks applied to layout of %d", len(m), len(layout))
	}
	out := make([]int, len(m))
	for r, slot := range m {
		if slot < 0 || slot >= len(layout) {
			return nil, fmt.Errorf("core: slot %d out of range", slot)
		}
		out[r] = layout[slot]
	}
	return out, nil
}

// NewRankOf returns the inverse view of the mapping: inv[origRank] =
// newRank, i.e. the rank that the process initially ranked origRank assumes
// in the reordered communicator.
func (m Mapping) NewRankOf() []int {
	inv := make([]int, len(m))
	for newRank, slot := range m {
		inv[slot] = newRank
	}
	return inv
}

// Options tunes heuristic behaviour.
type Options struct {
	// Rand, when non-nil, breaks find-closest ties uniformly at random as
	// the paper specifies ("one of them is chosen randomly"). When nil the
	// lowest slot index wins, which makes runs reproducible; the choice
	// does not affect mapping quality, only which of several equally good
	// cores is used.
	Rand *rand.Rand
	// RDMHRefUpdate is the number of processes mapped with respect to a
	// reference core before RDMH advances the reference (Algorithm 2 uses
	// 2, the default). 0 selects the default; negative means never advance
	// — the ablation knobs of the design study.
	RDMHRefUpdate int
	// newKernel, when set, builds the find-closest engine in place of the
	// production one. Only tests set it, to run the reference scan.
	newKernel func(d *topology.Distances, rnd *rand.Rand, scanned *int64) kernel
}

func (o *Options) rdmhRefUpdate() int {
	if o == nil || o.RDMHRefUpdate == 0 {
		return 2
	}
	return o.RDMHRefUpdate
}

// Heuristic is the common signature of the four mapping heuristics: given
// the physical distance matrix over the job's cores (indexed by initial
// rank), produce the rank reordering.
type Heuristic func(d *topology.Distances, opts *Options) (Mapping, error)

// OracleHeuristic is the context-aware form of a mapping heuristic over a
// distance oracle (a *topology.Distances); the Heuristic-typed entry points
// delegate here. The traversal loop honours context cancellation: when ctx
// is cancelled or its deadline passes, the heuristic returns ctx's error
// promptly instead of completing the mapping; a nil context disables the
// checks.
type OracleHeuristic func(ctx context.Context, o topology.Oracle, opts *Options) (Mapping, error)

// mapper carries the shared state of Algorithm 1. The free-slot set and the
// find-closest machinery live in the kernel, which answers each query in
// O(#levels), or O(#nodes) when a torus placement leaves ref's node.
type mapper struct {
	m       Mapping
	left    int             // number of unmapped ranks
	scanned int64           // find-closest work: members and units the kernel probed
	ctx     context.Context // nil when cancellation is disabled
	kern    kernel
}

// cancelled reports the mapper's context error, if any. Heuristic loops call
// it once per placement: the check adds a small constant to each placement
// while bounding the latency between a cancellation and the loop noticing it.
func (mp *mapper) cancelled() error {
	if mp.ctx == nil {
		return nil
	}
	if err := mp.ctx.Err(); err != nil {
		return fmt.Errorf("core: mapping interrupted with %d of %d ranks placed: %w",
			len(mp.m)-mp.left, len(mp.m), err)
	}
	return nil
}

func newMapper(o topology.Oracle, opts *Options) (*mapper, error) {
	p := o.N()
	if p == 0 {
		return nil, fmt.Errorf("core: empty distance matrix")
	}
	d, ok := o.(*topology.Distances)
	if !ok {
		return nil, fmt.Errorf("core: unsupported distance oracle %T", o)
	}
	mp := &mapper{
		m:    make(Mapping, p),
		left: p,
	}
	var rnd *rand.Rand
	newKernel := newBucketKernel
	if opts != nil {
		rnd = opts.Rand
		if opts.newKernel != nil {
			newKernel = opts.newKernel
		}
	}
	mp.kern = newKernel(d, rnd, &mp.scanned)
	for i := range mp.m {
		mp.m[i] = -1
	}
	// Step 1 of Algorithm 1: fix rank 0 on its current core.
	mp.assign(0, 0)
	return mp, nil
}

func (mp *mapper) mapped(rank int) bool { return mp.m[rank] >= 0 }

// assign maps rank onto slot. The caller guarantees slot is free.
func (mp *mapper) assign(rank, slot int) {
	mp.kern.takeSlot(slot)
	mp.m[rank] = slot
	mp.left--
}

// placeNear maps rank onto the free core closest to refRank's core
// (Algorithm 1 steps 5–6).
func (mp *mapper) placeNear(rank, refRank int) {
	mp.m[rank] = mp.kern.takeClosest(mp.m[refRank])
	mp.left--
}

// RDMH is the mapping heuristic for the recursive doubling communication
// pattern (paper Algorithm 2). Starting from the last stage — which carries
// the largest messages — it maps the stage-s partner of the reference core
// as close to it as possible, moving the reference core to the newest
// process after every two placements.
//
// Recursive doubling is defined for power-of-two process counts; for other
// counts RDMH still produces a valid total mapping by skipping partners
// beyond p-1 (matching how MPI libraries fall back in that regime).
func RDMH(d *topology.Distances, opts *Options) (Mapping, error) {
	return RDMHOracle(nil, d, opts)
}

// RDMHOracle is RDMH over an arbitrary distance oracle.
func RDMHOracle(ctx context.Context, o topology.Oracle, opts *Options) (m Mapping, err error) {
	mp, err := newMapper(o, opts)
	if err != nil {
		return nil, err
	}
	defer instrumentMapping("rdmh", time.Now(), mp, &err)
	mp.ctx = ctx
	p := o.N()
	refUpdate := opts.rdmhRefUpdate()
	// Restart frontier for the non-power-of-two fallback: XOR partners
	// beyond p-1 do not exist.
	fr := newMaskFrontier(prevPow2(p), func(r, mask int) int {
		if pr := r ^ mask; pr < p {
			return pr
		}
		return -1
	})
	fr.push(0, mp.mapped)
	ref := 0         // reference core, as a rank
	i := prevPow2(p) // current stage mask, starting from the last stage
	placedAtRef := 0 // processes mapped with respect to ref so far
	for mp.left > 0 {
		if err := mp.cancelled(); err != nil {
			return nil, err
		}
		// Select the new process: the partner of ref in the furthest
		// not-yet-mapped stage (Algorithm 2 lines 5–8).
		for i > 0 && (ref^i >= p || mp.mapped(ref^i)) {
			i >>= 1
		}
		if i == 0 {
			// Every partner of ref is mapped but ranks remain (possible
			// late in the run, or for non-power-of-two p). Restart from
			// the most recently usable reference: any mapped rank with an
			// unmapped partner; the XOR graph is connected, so one exists.
			ref, i = fr.next(mp.mapped)
			placedAtRef = 0
			continue
		}
		newRank := ref ^ i
		mp.placeNear(newRank, ref)
		fr.push(newRank, mp.mapped)
		placedAtRef++
		if refUpdate > 0 && placedAtRef == refUpdate {
			// Algorithm 2 lines 11–14: update the reference core after two
			// placements (or the configured cadence), restarting from the
			// last stage.
			ref = newRank
			i = prevPow2(p)
			placedAtRef = 0
		}
	}
	return mp.m, nil
}

// RMH is the mapping heuristic for the ring communication pattern (paper
// Algorithm 3): processes are selected in increasing rank order and each is
// mapped as close as possible to its ring predecessor, which becomes the new
// reference core.
func RMH(d *topology.Distances, opts *Options) (Mapping, error) {
	return RMHOracle(nil, d, opts)
}

// RMHOracle is RMH over an arbitrary distance oracle.
func RMHOracle(ctx context.Context, o topology.Oracle, opts *Options) (m Mapping, err error) {
	mp, err := newMapper(o, opts)
	if err != nil {
		return nil, err
	}
	defer instrumentMapping("rmh", time.Now(), mp, &err)
	mp.ctx = ctx
	p := o.N()
	ref := 0
	for mp.left > 0 {
		if err := mp.cancelled(); err != nil {
			return nil, err
		}
		newRank := (ref + 1) % p
		mp.placeNear(newRank, ref)
		ref = newRank
	}
	return mp.m, nil
}

// BBMH is the mapping heuristic for the binomial broadcast communication
// pattern (paper Algorithm 4). The binomial tree rooted at rank 0 is
// traversed depth-first visiting children with smaller subtrees first, which
// prioritises the pairwise communications of the later — more numerous, and
// therefore more contention-prone — stages of the broadcast. Every node is
// mapped as close as possible to its parent.
func BBMH(d *topology.Distances, opts *Options) (Mapping, error) {
	return BBMHWithTraversal(d, opts, SmallerSubtreeFirst)
}

// BBMHOracle is BBMH over an arbitrary distance oracle.
func BBMHOracle(ctx context.Context, o topology.Oracle, opts *Options) (Mapping, error) {
	return BBMHWithTraversalOracle(ctx, o, opts, SmallerSubtreeFirst)
}

// BGMH is the mapping heuristic for the binomial gather communication
// pattern (paper Algorithm 5). Message sizes grow toward the root of the
// gather tree, so the heuristic repeatedly takes the heaviest remaining tree
// edge — systematically, without building a process topology graph — and
// maps its unmapped endpoint as close as possible to the mapped one. Every
// newly mapped rank joins the set of potential reference cores.
func BGMH(d *topology.Distances, opts *Options) (Mapping, error) {
	return BGMHOracle(nil, d, opts)
}

// BGMHOracle is BGMH over an arbitrary distance oracle.
func BGMHOracle(ctx context.Context, o topology.Oracle, opts *Options) (m Mapping, err error) {
	mp, err := newMapper(o, opts)
	if err != nil {
		return nil, err
	}
	defer instrumentMapping("bgmh", time.Now(), mp, &err)
	mp.ctx = ctx
	p := o.N()
	refs := make([]int, 0, p)
	refs = append(refs, 0)
	for i := prevPow2(p); i > 0; i >>= 1 {
		// Iterate over the reference set as it stood at the start of the
		// round: edges (ref, ref+i) are exactly the binomial-tree edges of
		// weight i·m, the heaviest not yet mapped.
		bound := len(refs)
		for k := 0; k < bound; k++ {
			if err := mp.cancelled(); err != nil {
				return nil, err
			}
			ref := refs[k]
			newRank := ref + i
			if newRank >= p {
				continue
			}
			mp.placeNear(newRank, ref)
			refs = append(refs, newRank)
		}
	}
	return mp.m, nil
}

// prevPow2 returns the largest power of two strictly less than p, or 0 for
// p <= 1. For power-of-two p this is p/2 — the last-stage mask of recursive
// doubling and the first child offset of the binomial constructions.
func prevPow2(p int) int {
	if p <= 1 {
		return 0
	}
	return 1 << (bits.Len(uint(p-1)) - 1)
}
