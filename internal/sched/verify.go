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
//
// It is the only possession replay in the package: every Verify* runs it, and
// Program.EnsureExecutable records it into the executable view, so a
// schedule Verify accepts resolves to the payloads the executor runs.
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
	// from[r] is 1 + the transfer of a repeated Latest stage that delivers to
	// rank r, 0 if none does and -1 if several do.
	from []int32
	// record, if set, runs after each repeat lands, with the index of its
	// stage, while the arena still holds what the repeat moved.
	record func(stage int) error
}

// newReplay seeds a replay from the initial condition s declares, in which
// every rank holds one contiguous block range, or fails for InitSizedOnly
// schedules, which have no executable initial condition.
func (s *Schedule) newReplay() (*replayState, error) {
	p, blocks := s.P, s.NumBlocks()
	words := (blocks + 63) / 64
	bits := make([]uint64, 2*p*words)
	sets := make([]blockSet, 2*p)
	for i := range sets {
		sets[i] = bits[i*words : (i+1)*words : (i+1)*words]
	}
	rs := &replayState{p: p, blocks: blocks, held: sets[:p], incoming: sets[p:]}
	for r := 0; r < p; r++ {
		var lo, hi int // rank r starts holding blocks [lo, hi)
		switch s.Init {
		case InitOwn:
			lo, hi = r, r+1
		case InitRoot:
			if r == s.Root {
				hi = blocks
			}
		case InitAll:
			hi = blocks
		case InitSlab:
			lo, hi = r*(blocks/p), (r+1)*(blocks/p)
		case InitSizedOnly:
			return nil, fmt.Errorf("sched: %q is a pricing-only schedule with no initial block condition", s.Name)
		default:
			return nil, fmt.Errorf("sched: %q has unknown init kind %d", s.Name, s.Init)
		}
		for b := lo; b < hi; b++ {
			rs.held[r].add(int32(b))
		}
	}
	return rs, nil
}

// gather appends the blocks tr moves this repeat to the arena, checking that
// the sender holds what it sends. With latest set, a Latest sender that
// received in the previous repeat forwards what it received; otherwise Latest
// reads as Range. A sender that received several messages per repeat has no
// one message to forward, so its Latest forward is an error.
func (rs *replayState) gather(tr *Transfer, latest bool) error {
	held := rs.held[tr.Src]
	switch tr.Mode {
	case All:
		rs.moved = held.appendBlocks(rs.moved)
	case Latest:
		if latest {
			switch j := rs.from[tr.Src]; {
			case j < 0:
				return fmt.Errorf("rank %d forwards 'latest' after multiple same-repeat deliveries", tr.Src)
			case j > 0:
				rs.moved = append(rs.moved, rs.prevMoved[rs.prevCut[j-1]:rs.prevCut[j]]...)
				return nil
			}
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
// as a schedule bug (the executor could not order the stores). Reduce stages
// combine rather than store, and VerifyAllreduce's contribution replay is
// what checks them.
func (rs *replayState) runRepeat(st *Stage, latest bool) error {
	rs.moved, rs.cut = rs.moved[:0], append(rs.cut[:0], 0)
	for ti := range st.Transfers {
		tr := &st.Transfers[ti]
		if err := rs.gather(tr, latest); err != nil {
			return fmt.Errorf("transfer %d (rank %d -> rank %d): %w", ti, tr.Src, tr.Dst, err)
		}
		rs.cut = append(rs.cut, int32(len(rs.moved)))
		if st.Reduce {
			continue
		}
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
		// repeat delivered to it: find each rank's delivery, the same every
		// repeat, and keep the previous repeat's arena.
		latest := false
		for _, tr := range st.Transfers {
			latest = latest || tr.Mode == Latest && st.Repeats() > 1
		}
		if latest {
			rs.from = make([]int32, rs.p)
			for ti, tr := range st.Transfers {
				if rs.from[tr.Dst] == 0 {
					rs.from[tr.Dst] = int32(ti + 1)
				} else {
					rs.from[tr.Dst] = -1
				}
			}
		}
		for rep := 0; rep < st.Repeats(); rep++ {
			err := rs.runRepeat(st, latest && rep > 0)
			if err == nil && rs.record != nil {
				err = rs.record(i)
			}
			if err != nil {
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

// replayMain validates s, seeds a replay from its declared initial condition
// and runs the main stages (Pre stages are not replayed: they move input
// vectors between processes before the collective's block space is defined).
func (s *Schedule) replayMain() (*replayState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rs, err := s.newReplay()
	if err != nil {
		return nil, err
	}
	if err := rs.run(s.Stages); err != nil {
		return nil, fmt.Errorf("sched: %q: %w", s.Name, err)
	}
	return rs, nil
}

// VerifyAllgather replays the main stages of s from the allgather initial
// condition (InitOwn: rank r holds block r) and checks that every rank ends
// holding all blocks.
func (s *Schedule) VerifyAllgather() error {
	if s.Init != InitOwn {
		return fmt.Errorf("sched: %q: allgather schedules need the InitOwn initial condition, got %v", s.Name, s.Init)
	}
	rs, err := s.replayMain()
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

// VerifyGather replays s from the gather initial condition (InitOwn) and
// checks that s.Root ends holding all blocks.
func (s *Schedule) VerifyGather() error {
	if s.Init != InitOwn {
		return fmt.Errorf("sched: %q: gather schedules need the InitOwn initial condition, got %v", s.Name, s.Init)
	}
	rs, err := s.replayMain()
	if err != nil {
		return err
	}
	blocks := s.NumBlocks()
	if got := rs.held[s.Root].count(); got != blocks {
		return fmt.Errorf("sched: %q: root rank %d ends with %d of %d blocks, missing %s",
			s.Name, s.Root, got, blocks, rs.held[s.Root].missingFrom(blocks))
	}
	return nil
}

// VerifyBroadcast replays s from the broadcast initial condition (InitRoot:
// only s.Root holds the message, i.e. all NumBlocks blocks) and checks that
// every rank ends holding all of them.
func (s *Schedule) VerifyBroadcast() error {
	if s.Init != InitRoot {
		return fmt.Errorf("sched: %q: broadcast schedules need the InitRoot initial condition, got %v", s.Name, s.Init)
	}
	rs, err := s.replayMain()
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
	rs, err := s.replayMain()
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
