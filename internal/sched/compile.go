package sched

import (
	"fmt"
	"sync"
	"time"
)

// Program is a compiled schedule: the single artifact that the cost model
// prices, the generic executor runs, and the figure drivers consume. It
// carries two views of the same schedule:
//
//   - the pricing view (Stages) mirrors the schedule's stage structure 1:1,
//     with Repeat preserved, so contention pricing costs O(transfers) per
//     stage regardless of repeat counts — a 4096-rank ring prices 1 stage,
//     not 4095;
//   - the executable view (ExecStages/Ops/RankSteps) expands repeats and
//     resolves every transfer's symbolic block mode (All, Range, Latest)
//     into an explicit block list by replaying possession from the
//     schedule's InitKind. It is built lazily on first use and memoized,
//     so pricing-only programs never pay for it.
//
// A Program is immutable after compilation (the executable view's lazy
// build is guarded by a sync.Once), so one cached Program may be shared by
// every rank of a communicator and by concurrent worlds.
type Program struct {
	Name           string
	P              int
	Blocks         int
	Root           int
	Init           InitKind
	PostCopyBlocks int

	// Stages is the pricing view: Pre stages first, then main stages, in
	// schedule order.
	Stages []ProgStage

	execOnce    sync.Once
	execErr     error
	execStages  []ExecStage
	ops         []ExecOp
	blockIdx    []int32
	steps       [][]RankStep
	execToPrice []int32
}

// ProgStage is one stage of the pricing view.
type ProgStage struct {
	Pre       bool
	Repeat    int
	Reduce    bool
	Transfers []Transfer
}

// ExecOp is one point-to-point message of the executable view. Its payload
// is the block list blockIdx[Blk0:Blk0+NumBlk], in transmission order.
type ExecOp struct {
	Src, Dst     int32
	Blk0, NumBlk int
}

// ExecStage is one expanded stage repeat: ops [Op0, OpN) of Ops(). All ops
// of a stage proceed concurrently; Reduce stages combine delivered blocks
// with the collective's reduction operator instead of overwriting.
type ExecStage struct {
	Reduce   bool
	Op0, OpN int
}

// RankStep is one action of a rank's linear execution stream: send or
// receive op Op of expanded stage Stage. Within a stage a rank performs all
// its sends before its receives (sends never block in the runtime), in
// ascending op order on both sides so that FIFO (src, tag) matching pairs
// duplicate (src, dst) messages consistently.
type RankStep struct {
	Stage int32
	Op    int32
	Send  bool
}

// Compile validates s and builds its pricing view. The executable view is
// materialised on demand by EnsureExecutable.
func Compile(s *Schedule) (*Program, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Program{
		Name:           s.Name,
		P:              s.P,
		Blocks:         s.NumBlocks(),
		Root:           s.Root,
		Init:           s.Init,
		PostCopyBlocks: s.PostCopyBlocks,
		Stages:         make([]ProgStage, 0, len(s.Pre)+len(s.Stages)),
	}
	copyStage := func(st *Stage, pre bool) {
		trs := make([]Transfer, len(st.Transfers))
		copy(trs, st.Transfers)
		p.Stages = append(p.Stages, ProgStage{Pre: pre, Repeat: st.Repeats(), Reduce: st.Reduce, Transfers: trs})
	}
	for i := range s.Pre {
		copyStage(&s.Pre[i], true)
	}
	for i := range s.Stages {
		copyStage(&s.Stages[i], false)
	}
	scheduleCompileSeconds.With("view", "sized").Observe(time.Since(start).Seconds())
	return p, nil
}

// EnsureExecutable builds the executable view if it has not been built yet
// and returns its (memoized) result. Safe for concurrent use.
func (p *Program) EnsureExecutable() error {
	p.execOnce.Do(p.buildExec)
	return p.execErr
}

// ExecStages returns the expanded stages; call EnsureExecutable first.
func (p *Program) ExecStages() []ExecStage { return p.execStages }

// Ops returns the expanded ops; call EnsureExecutable first.
func (p *Program) Ops() []ExecOp { return p.ops }

// OpBlocks returns an op's payload block list in transmission order.
func (p *Program) OpBlocks(op ExecOp) []int32 { return p.blockIdx[op.Blk0 : op.Blk0+op.NumBlk] }

// RankSteps returns rank r's linear execution stream; call EnsureExecutable
// first.
func (p *Program) RankSteps(r int) []RankStep { return p.steps[r] }

// PriceStageMap maps each expanded (executable-view) stage index back to its
// pricing-view stage index: PriceStageMap()[e] is the position in Stages of
// the stage that expanded into ExecStages()[e]. Repeated stages map their
// repeats to one pricing index; Pre stages never appear (they are priced,
// not executed). The flight recorder uses this to bin measured stage times
// against simnet.Breakdown indices. Call EnsureExecutable first.
func (p *Program) PriceStageMap() []int32 { return p.execToPrice }

// rangeBlockList resolves a Range send into its explicit block list,
// checking possession.
func (p *Program) rangeBlockList(held blockSet, src, first, n int32) ([]int32, error) {
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

func (p *Program) buildExec() {
	start := time.Now()
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
					blocks, err = p.rangeBlockList(held[tr.Src], tr.Src, tr.First, tr.N)
				case Latest:
					if prev := lastRecv[tr.Src]; prev != nil {
						if ambiguous[tr.Src] {
							err = fmt.Errorf("sched: compile %q: rank %d forwards 'latest' after multiple same-repeat deliveries", p.Name, tr.Src)
						}
						blocks = prev
					} else {
						blocks, err = p.rangeBlockList(held[tr.Src], tr.Src, tr.First, tr.N)
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
	scheduleCompileSeconds.With("view", "exec").Observe(time.Since(start).Seconds())
}
