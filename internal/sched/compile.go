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
//     resolves every transfer's symbolic block mode (All, Range, Latest,
//     List) into an explicit block list: it records the verifier's
//     possession replay from the schedule's InitKind, so the view holds
//     exactly the payloads Verify checked. It is built lazily on first use
//     and memoized, so pricing-only programs never pay for it.
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

// buildExec records the verifier's possession replay of the main stages:
// each repeat becomes one expanded stage whose ops carry, in transmission
// order, the blocks the replay moved.
func (p *Program) buildExec() {
	start := time.Now()
	s := Schedule{Name: p.Name, P: p.P, Blocks: p.Blocks, Init: p.Init, Root: p.Root}
	rs, err := s.newReplay()
	if err != nil {
		p.execErr = err
		return
	}
	// Compile puts Pre stages first; they are priced, not executed (order
	// fixes run in the caller).
	pre := 0
	for pre < len(p.Stages) && p.Stages[pre].Pre {
		pre++
	}
	// Size the view from the stages: a transfer moves N blocks (a hint only,
	// as a malformed All or Latest transfer may move another count).
	main, nops, nblk := make([]Stage, len(p.Stages)-pre), 0, 0
	for i, st := range p.Stages[pre:] {
		main[i] = Stage{Transfers: st.Transfers, Repeat: st.Repeat, Reduce: st.Reduce}
		for _, tr := range st.Transfers {
			nops, nblk = nops+st.Repeat, nblk+int(tr.N)*st.Repeat
		}
	}
	p.ops, p.blockIdx = make([]ExecOp, 0, nops), make([]int32, 0, nblk)
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
		p.execToPrice = append(p.execToPrice, int32(pre+si))
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
	scheduleCompileSeconds.With("view", "exec").Observe(time.Since(start).Seconds())
}
