package sched

import (
	"fmt"
	"slices"
)

// The executable-view builder that Program.buildExec replaced, kept verbatim
// (renamed, its timing metric dropped) as the oracle for
// TestExecViewMatchesReference and as the mutation suite's ground truth. It
// resolves block lists with its own possession replay, which shares no code
// with replayState. It derives the Lend marks by a forward scan of each
// rank's later steps, where buildExec makes one backward pass.

// refExecView compiles s and builds its executable view with the reference
// body. The returned Program's EnsureExecutable is then a no-op reporting the
// reference's verdict.
func refExecView(s *Schedule) (*Program, error) {
	p, err := Compile(s)
	if err != nil {
		return nil, err
	}
	p.execOnce.Do(p.refBuildExec)
	return p, p.execErr
}

// refRangeBlockList resolves a Range send into its explicit block list,
// checking possession.
func (p *Program) refRangeBlockList(held blockSet, src, first, n int32) ([]int32, error) {
	out := make([]int32, 0, n)
	for k := int32(0); k < n; k++ {
		b := (first + k) % int32(p.Blocks)
		if !held.has(b) {
			return nil, fmt.Errorf("sched: compile %q: rank %d sends block %d it does not hold", p.Name, src, b)
		}
		out = append(out, b)
	}
	return out, nil
}

func (p *Program) refBuildExec() {
	if p.Init == InitSizedOnly {
		p.execErr = fmt.Errorf("sched: %q is a pricing-only program with no executable initial condition", p.Name)
		return
	}
	// Seed per-rank possession from the init kind.
	held := make([]blockSet, p.P)
	for r := 0; r < p.P; r++ {
		held[r] = newBlockSet(p.Blocks)
	}
	switch p.Init {
	case InitOwn:
		for r := 0; r < p.P; r++ {
			held[r].add(int32(r))
		}
	case InitRoot:
		for b := 0; b < p.Blocks; b++ {
			held[p.Root].add(int32(b))
		}
	case InitAll:
		for r := 0; r < p.P; r++ {
			for b := 0; b < p.Blocks; b++ {
				held[r].add(int32(b))
			}
		}
	case InitSlab:
		if p.Blocks%p.P != 0 {
			p.execErr = fmt.Errorf("sched: %q has slab init with %d blocks not divisible by P=%d", p.Name, p.Blocks, p.P)
			return
		}
		slab := p.Blocks / p.P
		for r := 0; r < p.P; r++ {
			for b := r * slab; b < (r+1)*slab; b++ {
				held[r].add(int32(b))
			}
		}
	default:
		p.execErr = fmt.Errorf("sched: %q has unknown init kind %d", p.Name, p.Init)
		return
	}
	// lastRecv mirrors the verifier's Latest pipeline state within a stage:
	// the block list a rank received in the previous repeat, nil before its
	// first delivery. ambiguous marks ranks whose latest repeat delivered
	// more than one message — a Latest forward from such a rank has no
	// defined payload order.
	lastRecv := make([][]int32, p.P)
	ambiguous := make([]bool, p.P)
	// stamp[r] records the repeat counter of rank r's latest delivery, so a
	// second same-repeat delivery is detected in O(1).
	stamp := make([]int, p.P)
	repCounter := 0
	// Pre stages run first, once each, as the Range transfers they name:
	// they move input vectors before the block space is defined, so a
	// sender's possession is not checked (all holds every block).
	all := newBlockSet(p.Blocks)
	for b := 0; b < p.Blocks; b++ {
		all.add(int32(b))
	}
	pre := len(p.Schedule().Pre)
	for si, st := range p.Schedule().Pre {
		if st.Repeats() != 1 || st.Reduce {
			p.execErr = fmt.Errorf("sched: compile %q: pre stage %d is repeated or reducing", p.Name, si)
			return
		}
		op0 := len(p.ops)
		for _, tr := range st.Transfers {
			if tr.Mode != Range {
				p.execErr = fmt.Errorf("sched: compile %q: pre stage %d has a non-Range transfer", p.Name, si)
				return
			}
			blocks, _ := p.refRangeBlockList(all, tr.Src, tr.First, tr.N)
			blk0 := len(p.blockIdx)
			p.blockIdx = append(p.blockIdx, blocks...)
			p.ops = append(p.ops, ExecOp{Src: tr.Src, Dst: tr.Dst, Blk0: blk0, NumBlk: len(blocks)})
		}
		p.execStages = append(p.execStages, ExecStage{Op0: op0, OpN: len(p.ops)})
		p.execToPrice = append(p.execToPrice, int32(si))
	}
	for mi := range p.Schedule().Stages {
		si, st := pre+mi, &p.Schedule().Stages[mi]
		for r := range lastRecv {
			lastRecv[r] = nil
			ambiguous[r] = false
		}
		for rep := 0; rep < st.Repeats(); rep++ {
			op0 := len(p.ops)
			for _, tr := range st.Transfers {
				var blocks []int32
				var err error
				switch tr.Mode {
				case All:
					blocks = held[tr.Src].appendBlocks(nil)
				case Range:
					blocks, err = p.refRangeBlockList(held[tr.Src], tr.Src, tr.First, tr.N)
				case Latest:
					if prev := lastRecv[tr.Src]; prev != nil {
						if ambiguous[tr.Src] {
							err = fmt.Errorf("sched: compile %q: rank %d forwards 'latest' after multiple same-repeat deliveries", p.Name, tr.Src)
						}
						blocks = prev
					} else {
						blocks, err = p.refRangeBlockList(held[tr.Src], tr.Src, tr.First, tr.N)
					}
				case List:
					for _, b := range tr.Blocks {
						if !held[tr.Src].has(b) {
							err = fmt.Errorf("sched: compile %q: rank %d sends listed block %d it does not hold", p.Name, tr.Src, b)
							break
						}
					}
					blocks = tr.Blocks
				default:
					err = fmt.Errorf("sched: compile %q: unknown transfer mode %d", p.Name, tr.Mode)
				}
				if err != nil {
					p.execErr = err
					return
				}
				if len(blocks) == 0 {
					p.execErr = fmt.Errorf("sched: compile %q: rank %d sends an empty message to %d", p.Name, tr.Src, tr.Dst)
					return
				}
				blk0 := len(p.blockIdx)
				p.blockIdx = append(p.blockIdx, blocks...)
				p.ops = append(p.ops, ExecOp{Src: tr.Src, Dst: tr.Dst, Blk0: blk0, NumBlk: len(blocks)})
			}
			// Deliveries land together after all sends of the repeat are
			// resolved against the pre-repeat state.
			repCounter++
			for i := op0; i < len(p.ops); i++ {
				op := &p.ops[i]
				if stamp[op.Dst] == repCounter {
					ambiguous[op.Dst] = true
				} else {
					stamp[op.Dst] = repCounter
					lastRecv[op.Dst] = p.blockIdx[op.Blk0 : op.Blk0+op.NumBlk]
					ambiguous[op.Dst] = false
				}
				for _, b := range p.OpBlocks(*op) {
					held[op.Dst].add(b)
				}
			}
			p.execStages = append(p.execStages, ExecStage{Reduce: st.Reduce, Op0: op0, OpN: len(p.ops)})
			p.execToPrice = append(p.execToPrice, int32(si))
		}
	}
	// Per-rank linear streams: sends first, then receives, each in
	// ascending op order within the stage.
	p.steps = make([][]RankStep, p.P)
	for si, es := range p.execStages {
		for i := es.Op0; i < es.OpN; i++ {
			src := p.ops[i].Src
			p.steps[src] = append(p.steps[src], RankStep{Stage: int32(si), Op: int32(i), Send: true})
		}
		for i := es.Op0; i < es.OpN; i++ {
			dst := p.ops[i].Dst
			p.steps[dst] = append(p.steps[dst], RankStep{Stage: int32(si), Op: int32(i), Send: false})
		}
	}
	// Lend, derived independently of buildExec's backward pass: a forward
	// scan of every later step of the rank for a receive sharing a block.
	for _, steps := range p.steps {
		for i := range steps {
			if steps[i].Send {
				steps[i].Lend = !refWrittenLater(p, steps[i], steps[i+1:])
			}
		}
	}
}

// refWrittenLater reports whether a receive among later carries a block of
// the send step's op.
func refWrittenLater(p *Program, send RankStep, later []RankStep) bool {
	for _, st := range later {
		if st.Send {
			continue
		}
		for _, b := range p.OpBlocks(p.ops[st.Op]) {
			if slices.Contains(p.OpBlocks(p.ops[send.Op]), b) {
				return true
			}
		}
	}
	return false
}
