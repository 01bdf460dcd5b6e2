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
func (b blockSet) del(i int32)      { b[i>>6] &^= 1 << (uint(i) & 63) }
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
// A replay allocates its state once, and a repeat costs O(blocks moved): each
// transfer's blocks are enumerated into one reused arena.
type replayState struct {
	p      int
	blocks int
	held   []blockSet
	// incoming[d] holds the blocks delivered to rank d so far in the current
	// repeat: the same-stage overlap check. Landing clears it.
	incoming []blockSet
	// Transfer i of the current repeat moves moved[cut[i]:cut[i+1]]; prevMoved
	// and prevCut keep the previous repeat's arena for Latest senders.
	moved, prevMoved []int32
	cut, prevCut     []int32
	// inHead[r] is 1 + the first transfer of a Latest stage delivering to
	// rank r, inNext[i] 1 + the next one after transfer i; 0 ends the list.
	inHead, inNext []int32
}

func newReplay(p, blocks int, initial func(rank int) []int32) *replayState {
	words := (blocks + 63) / 64
	bits := make([]uint64, 2*p*words)
	sets := make([]blockSet, 2*p)
	for i := range sets {
		sets[i] = bits[i*words : (i+1)*words : (i+1)*words]
	}
	rs := &replayState{p: p, blocks: blocks, held: sets[:p], incoming: sets[p:]}
	for r := 0; r < p; r++ {
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

// gather appends the blocks tr moves this repeat to the arena, checking that
// the sender holds what it sends. With latest set, a Latest sender that
// received in the previous repeat forwards what it received; otherwise Latest
// reads as Range.
func (rs *replayState) gather(tr *Transfer, latest bool) error {
	held := rs.held[tr.Src]
	switch tr.Mode {
	case All:
		rs.moved = held.appendBlocks(rs.moved)
	case Latest:
		if latest && rs.inHead[tr.Src] > 0 {
			for j := rs.inHead[tr.Src]; j > 0; j = rs.inNext[j-1] {
				rs.moved = append(rs.moved, rs.prevMoved[rs.prevCut[j-1]:rs.prevCut[j]]...)
			}
			return nil
		}
		fallthrough
	case Range:
		for k := int32(0); k < tr.N; k++ {
			b := (tr.First + k) % int32(rs.blocks)
			if !held.has(b) {
				return fmt.Errorf("rank %d sends block %d of range [%d,+%d) before holding it (holds %d of %d blocks)",
					tr.Src, b, tr.First, tr.N, held.count(), rs.blocks)
			}
			rs.moved = append(rs.moved, b)
		}
	case List:
		for _, b := range tr.Blocks {
			if !held.has(b) {
				return fmt.Errorf("rank %d sends listed block %d before holding it (holds %d of %d blocks)",
					tr.Src, b, held.count(), rs.blocks)
			}
		}
		rs.moved = append(rs.moved, tr.Blocks...)
	default:
		return fmt.Errorf("unknown transfer mode %d", tr.Mode)
	}
	return nil
}

// runRepeat executes one repeat of a stage: all transfers read the
// pre-repeat state and deliveries land together afterwards, modelling the
// concurrency of a stage.
//
// Two transfers of the same stage repeat may target one destination only
// with disjoint block sets; overlapping same-stage deliveries are rejected
// as a schedule bug (the executor could not order the stores).
func (rs *replayState) runRepeat(st *Stage, latest bool) error {
	rs.moved, rs.cut = rs.moved[:0], append(rs.cut[:0], 0)
	for ti := range st.Transfers {
		tr := &st.Transfers[ti]
		if err := rs.gather(tr, latest); err != nil {
			return fmt.Errorf("transfer %d (rank %d -> rank %d): %w", ti, tr.Src, tr.Dst, err)
		}
		rs.cut = append(rs.cut, int32(len(rs.moved)))
		in, mine := rs.incoming[tr.Dst], rs.moved[rs.cut[ti]:]
		for _, b := range mine {
			if in.has(b) {
				return rs.overlapError(st, ti)
			}
		}
		for _, b := range mine {
			in.add(b)
		}
	}
	for ti := range st.Transfers {
		held, in := rs.held[st.Transfers[ti].Dst], rs.incoming[st.Transfers[ti].Dst]
		for _, b := range rs.moved[rs.cut[ti]:rs.cut[ti+1]] {
			held.add(b)
			in.del(b)
		}
	}
	return nil
}

// overlapError is the overlap check's slow path: it names the first earlier
// delivery of the repeat that shares a block with transfer ti, and the
// smallest block they share.
func (rs *replayState) overlapError(st *Stage, ti int) error {
	tr, mine := &st.Transfers[ti], rs.movedSet(ti)
	for tj, d := range st.Transfers[:ti] {
		if d.Dst != tr.Dst {
			continue
		}
		if theirs := rs.movedSet(tj); theirs.intersects(mine) {
			return fmt.Errorf("transfer %d: ranks %d and %d both deliver block %d to rank %d in one stage",
				ti, d.Src, tr.Src, theirs.firstCommon(mine), tr.Dst)
		}
	}
	panic("sched: replay overlap check disagrees with the repeat's deliveries")
}

// movedSet returns the blocks transfer ti moved this repeat as a set.
func (rs *replayState) movedSet(ti int) blockSet {
	set := newBlockSet(rs.blocks)
	for _, b := range rs.moved[rs.cut[ti]:rs.cut[ti+1]] {
		set.add(b)
	}
	return set
}

func (rs *replayState) run(stages []Stage) error {
	for i := range stages {
		st := &stages[i]
		// A Latest sender of a repeated stage forwards what the previous
		// repeat delivered to it: link each rank's deliveries, the same every
		// repeat, and keep the previous repeat's arena.
		latest := false
		for _, tr := range st.Transfers {
			latest = latest || tr.Mode == Latest && st.Repeats() > 1
		}
		if latest {
			rs.inHead, rs.inNext = make([]int32, rs.p), make([]int32, len(st.Transfers))
			for ti := len(st.Transfers) - 1; ti >= 0; ti-- {
				dst := st.Transfers[ti].Dst
				rs.inNext[ti], rs.inHead[dst] = rs.inHead[dst], int32(ti+1)
			}
		}
		for rep := 0; rep < st.Repeats(); rep++ {
			if err := rs.runRepeat(st, latest && rep > 0); err != nil {
				return fmt.Errorf("stage %d repeat %d: %w", i, rep, err)
			}
			if latest {
				rs.moved, rs.prevMoved = rs.prevMoved, rs.moved
				rs.cut, rs.prevCut = rs.prevCut, rs.cut
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
	// contrib(r, b) is the set of ranks whose inputs rank r's copy of block b
	// has absorbed; every copy starts holding its own rank's input.
	words := (p + 63) / 64
	sets := make([]uint64, p*blocks*words)
	contrib := func(r, b int32) blockSet {
		i := (int(r)*blocks + int(b)) * words
		return sets[i : i+words : i+words]
	}
	for r := int32(0); r < int32(p); r++ {
		for b := int32(0); b < int32(blocks); b++ {
			contrib(r, b).add(r)
		}
	}
	// The per-repeat arena: each delivery's copy of its sender's set, taken
	// before any delivery of the repeat lands.
	type delivery struct{ dst, block int32 }
	var deliveries []delivery
	var sent []uint64
	for si := range s.Stages {
		st := &s.Stages[si]
		for rep := 0; rep < st.Repeats(); rep++ {
			deliveries, sent = deliveries[:0], sent[:0]
			for _, tr := range st.Transfers {
				first, n := tr.First, tr.N
				switch tr.Mode {
				case Range:
				case All: // under InitAll every rank holds every block throughout
					first, n = 0, int32(blocks)
				default:
					return fmt.Errorf("sched: %q: stage %d: allreduce replay supports Range and All transfers only", s.Name, si)
				}
				for k := int32(0); k < n; k++ {
					b := (first + k) % int32(blocks)
					deliveries = append(deliveries, delivery{tr.Dst, b})
					sent = append(sent, contrib(tr.Src, b)...)
				}
			}
			for i, d := range deliveries {
				cur, set := contrib(d.dst, d.block), blockSet(sent[i*words:(i+1)*words])
				if !st.Reduce {
					copy(cur, set)
					continue
				}
				if cur.intersects(set) {
					return fmt.Errorf("sched: %q: stage %d repeat %d: rank %d would absorb rank %d's contribution twice for block %d",
						s.Name, si, rep, d.dst, cur.firstCommon(set), d.block)
				}
				cur.union(set)
			}
		}
	}
	for r := int32(0); r < int32(p); r++ {
		for b := int32(0); b < int32(blocks); b++ {
			if got := contrib(r, b).count(); got != p {
				return fmt.Errorf("sched: %q: rank %d block %d absorbs %d of %d contributions, missing ranks %s",
					s.Name, r, b, got, p, contrib(r, b).missingFrom(p))
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
