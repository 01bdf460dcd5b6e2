package sched

import (
	"fmt"
	"math/bits"
	"strings"
)

// blockSet is a bitset over block identifiers 0..Blocks-1.
type blockSet []uint64

func newBlockSet(n int) blockSet { return make(blockSet, (n+63)/64) }

func (b blockSet) add(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b blockSet) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b blockSet) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b blockSet) union(o blockSet) {
	for i := range b {
		b[i] |= o[i]
	}
}

// intersects reports whether b and o share any block.
func (b blockSet) intersects(o blockSet) bool {
	for i := range b {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

func (b blockSet) clone() blockSet {
	c := make(blockSet, len(b))
	copy(c, b)
	return c
}

// appendBlocks appends the set's members to dst in ascending order.
func (b blockSet) appendBlocks(dst []int32) []int32 {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, int32(wi*64+bit))
			w &= w - 1
		}
	}
	return dst
}

// firstCommon returns the smallest block present in both sets, or -1. Used
// to name the offending block in overlap and double-absorb errors.
func (b blockSet) firstCommon(o blockSet) int32 {
	for i := range b {
		if w := b[i] & o[i]; w != 0 {
			return int32(i*64 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// missingFrom lists the blocks of 0..blocks-1 absent from b, rendered
// compactly for error messages (at most 8 named, with a remainder count).
func (b blockSet) missingFrom(blocks int) string {
	var miss []int32
	for i := int32(0); i < int32(blocks); i++ {
		if !b.has(i) {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return "none"
	}
	const show = 8
	var sb strings.Builder
	for i, m := range miss {
		if i == show {
			fmt.Fprintf(&sb, " and %d more", len(miss)-show)
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", m)
	}
	return sb.String()
}

// replayState tracks per-rank block possession through a schedule. The block
// space has size blocks (Schedule.NumBlocks), independent of the rank count.
type replayState struct {
	p      int
	blocks int
	held   []blockSet
}

func newReplay(p, blocks int, initial func(rank int) []int32) *replayState {
	rs := &replayState{p: p, blocks: blocks, held: make([]blockSet, p)}
	for r := 0; r < p; r++ {
		rs.held[r] = newBlockSet(blocks)
		for _, b := range initial(r) {
			rs.held[r].add(b)
		}
	}
	return rs
}

// initialHolding returns the initial per-rank block sets declared by the
// schedule's InitKind, or an error for InitSizedOnly schedules, which have no
// executable initial condition.
func (s *Schedule) initialHolding() (func(rank int) []int32, error) {
	blocks := s.NumBlocks()
	all := make([]int32, blocks)
	for i := range all {
		all[i] = int32(i)
	}
	switch s.Init {
	case InitOwn:
		return func(r int) []int32 { return []int32{int32(r)} }, nil
	case InitRoot:
		root := s.Root
		return func(r int) []int32 {
			if r == root {
				return all
			}
			return nil
		}, nil
	case InitAll:
		return func(r int) []int32 { return all }, nil
	case InitSlab:
		slab := blocks / s.P
		return func(r int) []int32 {
			return all[r*slab : (r+1)*slab]
		}, nil
	case InitSizedOnly:
		return nil, fmt.Errorf("sched: %q is a pricing-only schedule with no initial block condition", s.Name)
	}
	return nil, fmt.Errorf("sched: %q has unknown init kind %d", s.Name, s.Init)
}

// rangeBlocks resolves a contiguous (mod blocks) range send, checking that
// the sender holds every block in it.
func (rs *replayState) rangeBlocks(src, first, n int32) (blockSet, error) {
	moved := newBlockSet(rs.blocks)
	for k := int32(0); k < n; k++ {
		b := (first + k) % int32(rs.blocks)
		if !rs.held[src].has(b) {
			return nil, fmt.Errorf("rank %d sends block %d of range [%d,+%d) before holding it (holds %d of %d blocks)",
				src, b, first, n, rs.held[src].count(), rs.blocks)
		}
		moved.add(b)
	}
	return moved, nil
}

// runStage executes one repeat of a stage: all transfers read the pre-repeat
// state and deliveries land together afterwards, modelling the concurrency
// of a stage. stageRecv carries the pipeline state of the Latest mode across
// the repeats of one stage: on the first repeat a rank forwards the range
// [First, First+N) it already holds; afterwards it forwards what the
// previous repeat delivered to it.
//
// Two transfers of the same stage repeat may target one destination only
// with disjoint block sets; overlapping same-stage deliveries are rejected
// as a schedule bug (the executor could not order the stores).
func (rs *replayState) runStage(st *Stage, stageRecv []blockSet) error {
	type delivery struct {
		src, dst int32
		blocks   blockSet
	}
	deliveries := make([]delivery, 0, len(st.Transfers))
	for ti, tr := range st.Transfers {
		var moved blockSet
		var err error
		switch tr.Mode {
		case All:
			moved = rs.held[tr.Src].clone()
		case Range:
			if moved, err = rs.rangeBlocks(tr.Src, tr.First, tr.N); err != nil {
				return fmt.Errorf("transfer %d (rank %d -> rank %d): %w", ti, tr.Src, tr.Dst, err)
			}
		case Latest:
			if prev := stageRecv[tr.Src]; prev != nil {
				moved = prev.clone()
			} else if moved, err = rs.rangeBlocks(tr.Src, tr.First, tr.N); err != nil {
				return fmt.Errorf("transfer %d (rank %d -> rank %d): %w", ti, tr.Src, tr.Dst, err)
			}
		case List:
			moved = newBlockSet(rs.blocks)
			for _, b := range tr.Blocks {
				if !rs.held[tr.Src].has(b) {
					return fmt.Errorf("transfer %d (rank %d -> rank %d): rank %d sends listed block %d before holding it (holds %d of %d blocks)",
						ti, tr.Src, tr.Dst, tr.Src, b, rs.held[tr.Src].count(), rs.blocks)
				}
				moved.add(b)
			}
		default:
			return fmt.Errorf("transfer %d (rank %d -> rank %d): unknown transfer mode %d",
				ti, tr.Src, tr.Dst, tr.Mode)
		}
		for _, d := range deliveries {
			if d.dst == tr.Dst && d.blocks.intersects(moved) {
				return fmt.Errorf("transfer %d: ranks %d and %d both deliver block %d to rank %d in one stage",
					ti, d.src, tr.Src, d.blocks.firstCommon(moved), tr.Dst)
			}
		}
		deliveries = append(deliveries, delivery{tr.Src, tr.Dst, moved})
	}
	// Deliveries land together; a rank's "latest received" becomes the union
	// of everything that arrived this repeat.
	delivered := make(map[int32]bool, len(deliveries))
	for _, d := range deliveries {
		rs.held[d.dst].union(d.blocks)
		if delivered[d.dst] {
			stageRecv[d.dst].union(d.blocks)
		} else {
			stageRecv[d.dst] = d.blocks
			delivered[d.dst] = true
		}
	}
	return nil
}

func (rs *replayState) run(stages []Stage) error {
	for i := range stages {
		st := &stages[i]
		stageRecv := make([]blockSet, rs.p)
		for rep := 0; rep < st.Repeats(); rep++ {
			if err := rs.runStage(st, stageRecv); err != nil {
				return fmt.Errorf("stage %d repeat %d: %w", i, rep, err)
			}
		}
	}
	return nil
}

// replayMain validates s, seeds a replay from initial and runs the main
// stages (Pre stages are not replayed: they move input vectors between
// processes before the collective's block space is defined).
func (s *Schedule) replayMain(initial func(rank int) []int32) (*replayState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rs := newReplay(s.P, s.NumBlocks(), initial)
	if err := rs.run(s.Stages); err != nil {
		return nil, fmt.Errorf("sched: %q: %w", s.Name, err)
	}
	return rs, nil
}

// VerifyAllgather replays the main stages of s from the allgather initial
// condition (rank r holds block r) and checks that every rank ends holding
// all blocks.
func (s *Schedule) VerifyAllgather() error {
	rs, err := s.replayMain(func(r int) []int32 { return []int32{int32(r)} })
	if err != nil {
		return err
	}
	blocks := s.NumBlocks()
	for r := 0; r < s.P; r++ {
		if got := rs.held[r].count(); got != blocks {
			return fmt.Errorf("sched: %q: rank %d ends with %d of %d blocks, missing %s",
				s.Name, r, got, blocks, rs.held[r].missingFrom(blocks))
		}
	}
	return nil
}

// VerifyGather replays s and checks that the root ends holding all blocks.
func (s *Schedule) VerifyGather(root int) error {
	rs, err := s.replayMain(func(r int) []int32 { return []int32{int32(r)} })
	if err != nil {
		return err
	}
	blocks := s.NumBlocks()
	if got := rs.held[root].count(); got != blocks {
		return fmt.Errorf("sched: %q: root rank %d ends with %d of %d blocks, missing %s",
			s.Name, root, got, blocks, rs.held[root].missingFrom(blocks))
	}
	return nil
}

// VerifyBroadcast replays s from the broadcast initial condition (only the
// root holds the message, i.e. all NumBlocks blocks) and checks that every
// rank ends holding all of them.
func (s *Schedule) VerifyBroadcast(root int) error {
	blocks := s.NumBlocks()
	all := make([]int32, blocks)
	for i := range all {
		all[i] = int32(i)
	}
	rs, err := s.replayMain(func(r int) []int32 {
		if r == root {
			return all
		}
		return nil
	})
	if err != nil {
		return err
	}
	for r := 0; r < s.P; r++ {
		if got := rs.held[r].count(); got != blocks {
			return fmt.Errorf("sched: %q: rank %d ends with %d of %d blocks, missing %s",
				s.Name, r, got, blocks, rs.held[r].missingFrom(blocks))
		}
	}
	return nil
}

// VerifyAllreduce replays s as a reduction schedule: instead of possession,
// the replay tracks which ranks' contributions each held block copy has
// absorbed. A Reduce stage merges the sender's contribution set into the
// receiver's — rejecting the merge if the sets overlap, since combining a
// contribution twice corrupts the sum — while a non-Reduce stage overwrites
// the receiver's copy. The schedule passes when every rank's every block has
// absorbed all P contributions.
func (s *Schedule) VerifyAllreduce() error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Init != InitAll {
		return fmt.Errorf("sched: %q: allreduce schedules need the InitAll initial condition, got %v", s.Name, s.Init)
	}
	p, blocks := s.P, s.NumBlocks()
	// contrib[r][b] is the set of ranks whose inputs rank r's copy of block
	// b has absorbed. Every copy starts holding its own rank's input.
	contrib := make([][]blockSet, p)
	for r := 0; r < p; r++ {
		contrib[r] = make([]blockSet, blocks)
		for b := 0; b < blocks; b++ {
			contrib[r][b] = newBlockSet(p)
			contrib[r][b].add(int32(r))
		}
	}
	for si := range s.Stages {
		st := &s.Stages[si]
		for rep := 0; rep < st.Repeats(); rep++ {
			type delivery struct {
				dst, block int32
				set        blockSet
			}
			var deliveries []delivery
			for _, tr := range st.Transfers {
				switch tr.Mode {
				case Range:
					for k := int32(0); k < tr.N; k++ {
						b := (tr.First + k) % int32(blocks)
						deliveries = append(deliveries, delivery{tr.Dst, b, contrib[tr.Src][b].clone()})
					}
				case All:
					// Under InitAll every rank holds every block throughout.
					for b := int32(0); b < int32(blocks); b++ {
						deliveries = append(deliveries, delivery{tr.Dst, b, contrib[tr.Src][b].clone()})
					}
				default:
					return fmt.Errorf("sched: %q: stage %d: allreduce replay supports Range and All transfers only", s.Name, si)
				}
			}
			for _, d := range deliveries {
				cur := contrib[d.dst][d.block]
				if st.Reduce {
					if cur.intersects(d.set) {
						return fmt.Errorf("sched: %q: stage %d repeat %d: rank %d would absorb rank %d's contribution twice for block %d",
							s.Name, si, rep, d.dst, cur.firstCommon(d.set), d.block)
					}
					cur.union(d.set)
				} else {
					contrib[d.dst][d.block] = d.set
				}
			}
		}
	}
	for r := 0; r < p; r++ {
		for b := 0; b < blocks; b++ {
			if got := contrib[r][b].count(); got != p {
				return fmt.Errorf("sched: %q: rank %d block %d absorbs %d of %d contributions, missing ranks %s",
					s.Name, r, b, got, p, contrib[r][b].missingFrom(p))
			}
		}
	}
	return nil
}

// VerifyAlltoall replays the main stages of s from the all-to-all initial
// condition — the block space is P² per-pair blocks, block s*P+d being the
// data rank s addresses to rank d, and rank r starts holding its slab
// [r*P, (r+1)*P) — and checks that every rank d ends holding all P blocks
// addressed to it, {s*P+d : s in 0..P-1}. Possession is monotone, so
// intermediaries (Bruck rounds route other pairs' blocks through relays) may
// end holding extra blocks; the contract is that the addressed blocks arrive.
func (s *Schedule) VerifyAlltoall() error {
	p := s.P
	if s.NumBlocks() != p*p {
		return fmt.Errorf("sched: %q: all-to-all schedules move a P²-block space, got %d blocks for P=%d",
			s.Name, s.NumBlocks(), p)
	}
	if s.Init != InitSlab {
		return fmt.Errorf("sched: %q: all-to-all schedules need the InitSlab initial condition, got %v", s.Name, s.Init)
	}
	initial, err := s.initialHolding()
	if err != nil {
		return err
	}
	rs, err := s.replayMain(initial)
	if err != nil {
		return err
	}
	for d := 0; d < p; d++ {
		for src := 0; src < p; src++ {
			if b := int32(src*p + d); !rs.held[d].has(b) {
				return fmt.Errorf("sched: %q: rank %d never receives block %d (rank %d's data addressed to it)",
					s.Name, d, b, src)
			}
		}
	}
	return nil
}
