package sched

import "fmt"

// The executable-view builder that Program.buildExec replaced, kept verbatim
// (renamed, its timing metric dropped) as the oracle for
// TestExecViewMatchesReference and as the mutation suite's ground truth. It
// resolves block lists with its own possession replay, which shares no code
// with replayState.

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
	for si := range p.Stages {
		st := &p.Stages[si]
		if st.Pre {
			continue // Pre stages are priced, not executed (order fixes run in the caller)
		}
		for r := range lastRecv {
			lastRecv[r] = nil
			ambiguous[r] = false
		}
		for rep := 0; rep < st.Repeat; rep++ {
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
}
