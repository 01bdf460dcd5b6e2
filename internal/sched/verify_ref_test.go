package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// The reference implementations the replay, VerifyAllreduce and Fingerprint
// were rewritten from, kept verbatim (renamed) so that the equivalence tests
// in verify_mutation_test.go compare the rewrites against them with ==.
// initialHolding, the per-rank block lists the replay was once seeded from,
// seeds the reference replay.
//
// One rule has changed since: a Latest forward from a rank that received
// several messages in the previous repeat used to send their union; it is
// now an error, the executable view's rule, because the replay builds that
// view and the view has no one message to forward. 43 mutants of the suite
// (retargeted ring-style transfers at p ∈ {4, 6, 16, 64}) now fail to verify,
// four of which — scatter-allgather-broadcast retargets — verified before.

func (b blockSet) clone() blockSet {
	c := make(blockSet, len(b))
	copy(c, b)
	return c
}

// refReplayState is the replay-by-allocation: a dense block set per transfer,
// a pairwise overlap scan per stage repeat and a map per repeat.
type refReplayState struct {
	p      int
	blocks int
	held   []blockSet
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

func newRefReplay(p, blocks int, initial func(rank int) []int32) *refReplayState {
	rs := &refReplayState{p: p, blocks: blocks, held: make([]blockSet, p)}
	for r := 0; r < p; r++ {
		rs.held[r] = newBlockSet(blocks)
		for _, b := range initial(r) {
			rs.held[r].add(b)
		}
	}
	return rs
}

func (rs *refReplayState) rangeBlocks(src, first, n int32) (blockSet, error) {
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

// stageRecv[r] is what rank r received in the previous repeat, and multi[r]
// whether that was more than one message.
func (rs *refReplayState) runStage(st *Stage, stageRecv []blockSet, multi []bool) error {
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
			if prev := stageRecv[tr.Src]; prev != nil && multi[tr.Src] {
				return fmt.Errorf("transfer %d (rank %d -> rank %d): rank %d forwards 'latest' after multiple same-repeat deliveries",
					ti, tr.Src, tr.Dst, tr.Src)
			} else if prev != nil {
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
	delivered := make(map[int32]bool, len(deliveries))
	for _, d := range deliveries {
		rs.held[d.dst].union(d.blocks)
		if delivered[d.dst] {
			multi[d.dst] = true
		} else {
			stageRecv[d.dst], multi[d.dst] = d.blocks, false
			delivered[d.dst] = true
		}
	}
	return nil
}

func (rs *refReplayState) run(stages []Stage) error {
	for i := range stages {
		st := &stages[i]
		stageRecv, multi := make([]blockSet, rs.p), make([]bool, rs.p)
		for rep := 0; rep < st.Repeats(); rep++ {
			if err := rs.runStage(st, stageRecv, multi); err != nil {
				return fmt.Errorf("stage %d repeat %d: %w", i, rep, err)
			}
		}
	}
	return nil
}

func refReplayMain(s *Schedule, initial func(rank int) []int32) (*refReplayState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rs := newRefReplay(s.P, s.NumBlocks(), initial)
	if err := rs.run(s.Stages); err != nil {
		return nil, fmt.Errorf("sched: %q: %w", s.Name, err)
	}
	return rs, nil
}

// refVerify is f's Verify contract on the reference replay: the bodies of
// VerifyAllgather, VerifyGather, VerifyBroadcast, VerifyScatter and
// VerifyAlltoall over refReplayMain, and refVerifyAllreduce.
func refVerify(f *Family, s *Schedule) error {
	blocks := s.NumBlocks()
	all := make([]int32, blocks)
	for i := range all {
		all[i] = int32(i)
	}
	own := func(r int) []int32 { return []int32{int32(r)} }
	rootHolds := func(r int) []int32 {
		if r == s.Root {
			return all
		}
		return nil
	}
	everyRankAll := func(rs *refReplayState) error {
		for r := 0; r < s.P; r++ {
			if got := rs.held[r].count(); got != blocks {
				return fmt.Errorf("sched: %q: rank %d ends with %d of %d blocks, missing %s",
					s.Name, r, got, blocks, rs.held[r].missingFrom(blocks))
			}
		}
		return nil
	}
	switch f.ID {
	case FamilyAllreduce:
		return refVerifyAllreduce(s)
	case FamilyAllgather:
		rs, err := refReplayMain(s, own)
		if err != nil {
			return err
		}
		return everyRankAll(rs)
	case FamilyBroadcast:
		rs, err := refReplayMain(s, rootHolds)
		if err != nil {
			return err
		}
		return everyRankAll(rs)
	case FamilyGather:
		rs, err := refReplayMain(s, own)
		if err != nil {
			return err
		}
		if got := rs.held[s.Root].count(); got != blocks {
			return fmt.Errorf("sched: %q: root rank %d ends with %d of %d blocks, missing %s",
				s.Name, s.Root, got, blocks, rs.held[s.Root].missingFrom(blocks))
		}
		return nil
	case FamilyScatter:
		rs, err := refReplayMain(s, rootHolds)
		if err != nil {
			return err
		}
		for r := 0; r < s.P; r++ {
			if !rs.held[r].has(int32(r)) {
				return fmt.Errorf("sched: %q: rank %d never receives its block %d (ends holding %d of %d blocks)",
					s.Name, r, r, rs.held[r].count(), s.NumBlocks())
			}
		}
		return nil
	case FamilyAlltoall:
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
		rs, err := refReplayMain(s, initial)
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
	return fmt.Errorf("no reference verify for family %s", f.Name)
}

// refVerifyAllreduce clones a contribution set per (delivery, block).
func refVerifyAllreduce(s *Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Init != InitAll {
		return fmt.Errorf("sched: %q: allreduce schedules need the InitAll initial condition, got %v", s.Name, s.Init)
	}
	p, blocks := s.P, s.NumBlocks()
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

// refFingerprint stages every field through a closure call.
func refFingerprint(s *Schedule) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	room := func(n int) {
		if len(buf)+n > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	word := func(v int64) {
		room(8)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	tag := func(b byte) {
		room(1)
		buf = append(buf, b)
	}
	h.Write([]byte(s.Name))
	tag(0)
	word(int64(s.P))
	word(int64(s.NumBlocks()))
	word(int64(s.Root))
	word(int64(s.Init))
	word(int64(s.PostCopyBlocks))
	section := func(stages []Stage, marker byte) {
		tag(marker)
		word(int64(len(stages)))
		for i := range stages {
			st := &stages[i]
			word(int64(st.Repeats()))
			reduce := byte(0)
			if st.Reduce {
				reduce = 1
			}
			tag(reduce)
			word(int64(len(st.Transfers)))
			for _, tr := range st.Transfers {
				word(int64(tr.Src))
				word(int64(tr.Dst))
				word(int64(tr.First))
				word(int64(tr.N))
				word(int64(tr.Mode))
				if tr.Mode == List {
					for _, b := range tr.Blocks {
						word(int64(b))
					}
				}
			}
		}
	}
	section(s.Pre, 'p')
	section(s.Stages, 'm')
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
