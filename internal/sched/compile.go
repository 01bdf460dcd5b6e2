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
//   - the pricing view is the Schedule itself (Schedule()): Pre stages
//     first, then main stages, with Repeat preserved, so contention pricing
//     costs O(transfers) per stage regardless of repeat counts — a
//     4096-rank ring prices 1 stage, not 4095;
//   - the executable view (ExecStages/Ops/RankSteps) runs the same stages in
//     the same order, Pre stages first, with repeats expanded and every
//     transfer's symbolic block mode (All, Range, Latest, List) resolved
//     into an explicit block list: it records the verifier's possession
//     replay of the main stages from the schedule's InitKind, so the view
//     holds exactly the payloads Verify checked. It is built lazily on
//     first use and memoized, so pricing-only programs never pay for it.
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

	s *Schedule

	execOnce    sync.Once
	execErr     error
	execStages  []ExecStage
	ops         []ExecOp
	blockIdx    []int32
	steps       [][]RankStep
	execToPrice []int32
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
//
// Lend marks a send whose blocks no later receive of the rank carries: the
// rank never writes those blocks again in this execution, so the executor
// may send a view of its buffer instead of a copy. A stage's receives follow
// its sends, so a block the rank receives in the sending stage is written
// later.
type RankStep struct {
	Stage int32
	Op    int32
	Send  bool
	Lend  bool
}

// Compile validates s and returns its program, whose pricing view is s
// itself: no transfer is copied. s must not change after compilation (the
// schedule-immutability contract every reader of a shared schedule relies
// on). The executable view is materialised on demand by EnsureExecutable.
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
		s:              s,
	}
	scheduleCompileSeconds.With("view", "sized").Observe(time.Since(start).Seconds())
	return p, nil
}

// Schedule returns the schedule p was compiled from: its pricing view.
// Callers read it and never write it.
func (p *Program) Schedule() *Schedule { return p.s }

// NumPriceStages returns the length of the pricing view: the schedule's Pre
// stages plus its main stages.
func (p *Program) NumPriceStages() int { return len(p.s.Pre) + len(p.s.Stages) }

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
// pricing-view stage index: PriceStageMap()[e] is the position, Pre stages
// first, of the schedule stage that expanded into ExecStages()[e]. Each Pre
// stage appears once, ahead of the main stages; a repeated main stage maps
// its repeats to one pricing index. The flight recorder uses this to bin
// measured stage times against simnet.Breakdown indices. Call
// EnsureExecutable first.
func (p *Program) PriceStageMap() []int32 { return p.execToPrice }

// buildExec records the schedule's Pre stages as they stand, then the
// verifier's possession replay of the main stages: each repeat becomes one
// expanded stage whose ops carry, in transmission order, the blocks the
// replay moved.
func (p *Program) buildExec() {
	start := time.Now()
	rs, err := p.s.newReplay()
	if err != nil {
		p.execErr = err
		return
	}
	// Size the view: a transfer moves N blocks (a hint only, as a malformed
	// All or Latest transfer may move another count).
	pre, main, nops, nblk := p.s.Pre, p.s.Stages, 0, 0
	for _, stages := range [2][]Stage{pre, main} {
		for _, st := range stages {
			for _, tr := range st.Transfers {
				nops, nblk = nops+st.Repeats(), nblk+int(tr.N)*st.Repeats()
			}
		}
	}
	p.ops, p.blockIdx = make([]ExecOp, 0, nops), make([]int32, 0, nblk)
	// A Pre stage moves input vectors before the collective's block space
	// is defined, so the replay cannot check it: it must be Range transfers
	// run once (what WithOrderPreservation emits), carrying what they name.
	for si, st := range pre {
		if st.Repeats() != 1 || st.Reduce {
			p.execErr = fmt.Errorf("sched: %q: pre stage %d is repeated or reducing", p.Name, si)
			return
		}
		op0 := len(p.ops)
		for _, tr := range st.Transfers {
			if tr.Mode != Range {
				p.execErr = fmt.Errorf("sched: %q: pre stage %d has a non-Range transfer", p.Name, si)
				return
			}
			p.ops = append(p.ops, ExecOp{Src: tr.Src, Dst: tr.Dst, Blk0: len(p.blockIdx), NumBlk: int(tr.N)})
			for k := int32(0); k < tr.N; k++ {
				p.blockIdx = append(p.blockIdx, (tr.First+k)%int32(p.Blocks))
			}
		}
		p.execStages = append(p.execStages, ExecStage{Op0: op0, OpN: len(p.ops)})
		p.execToPrice = append(p.execToPrice, int32(si))
	}
	rs.record = func(si int) error {
		op0 := len(p.ops)
		for ti, tr := range main[si].Transfers {
			blocks := rs.moved[rs.cut[ti]:rs.cut[ti+1]]
			if len(blocks) == 0 {
				return fmt.Errorf("rank %d sends an empty message to %d", tr.Src, tr.Dst)
			}
			p.ops = append(p.ops, ExecOp{Src: tr.Src, Dst: tr.Dst, Blk0: len(p.blockIdx), NumBlk: len(blocks)})
			p.blockIdx = append(p.blockIdx, blocks...)
		}
		p.execStages = append(p.execStages, ExecStage{Reduce: main[si].Reduce, Op0: op0, OpN: len(p.ops)})
		p.execToPrice = append(p.execToPrice, int32(len(pre)+si))
		return nil
	}
	if err := rs.run(main); err != nil {
		p.execErr = fmt.Errorf("sched: %q: %w", p.Name, err)
		return
	}
	// Per-rank linear streams: sends first, then receives, each in
	// ascending op order within the stage, carved from one array.
	n := make([]int, p.P)
	for _, op := range p.ops {
		n[op.Src]++
		n[op.Dst]++
	}
	p.steps = make([][]RankStep, p.P)
	arena := make([]RankStep, 2*len(p.ops))
	for r := range p.steps {
		p.steps[r], arena = arena[:0:n[r]], arena[n[r]:]
	}
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
	// Lend marks, one backward pass per rank: written[b] == r+1 once a
	// receive later in rank r's stream carries block b.
	written := make([]int32, p.Blocks)
	for r, steps := range p.steps {
		for i := len(steps) - 1; i >= 0; i-- {
			st := &steps[i]
			st.Lend = st.Send
			for _, b := range p.OpBlocks(p.ops[st.Op]) {
				if !st.Send {
					written[b] = int32(r + 1)
				} else if written[b] == int32(r+1) {
					st.Lend = false
				}
			}
		}
	}
	scheduleCompileSeconds.With("view", "exec").Observe(time.Since(start).Seconds())
}
