package simnet

import (
	"fmt"
	"strings"

	"repro/internal/sched"
)

// StageCost explains the price of one schedule stage.
type StageCost struct {
	// Index is the stage position (Pre stages first, then main stages).
	Index int
	// Pre marks prologue (order-fix) stages.
	Pre bool
	// Repeat is the stage's execution count.
	Repeat int
	// Seconds is the duration of one execution.
	Seconds float64
	// Transfers is the stage's transfer count.
	Transfers int
	// BytesMoved is the payload volume of one execution.
	BytesMoved int64
}

// Breakdown explains a schedule's total price.
type Breakdown struct {
	Stages []StageCost
	// PostCopySeconds is the local shuffle epilogue.
	PostCopySeconds float64
	// Total is the full schedule price (equal to Price's result).
	Total float64
}

// String renders the breakdown as a compact table.
func (b *Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%5s %5s %6s %10s %12s %12s\n", "stage", "pre", "xreps", "transfers", "bytes/exec", "time/exec")
	for _, st := range b.Stages {
		fmt.Fprintf(&sb, "%5d %5v %6d %10d %12d %10.3fus\n",
			st.Index, st.Pre, st.Repeat, st.Transfers, st.BytesMoved, st.Seconds*1e6)
	}
	if b.PostCopySeconds > 0 {
		fmt.Fprintf(&sb, "post-copy shuffle: %.3fus\n", b.PostCopySeconds*1e6)
	}
	fmt.Fprintf(&sb, "total: %.3fms\n", b.Total*1e3)
	return sb.String()
}

// Explain prices a schedule like Price but returns the per-stage detail, on
// the program sched.Compile builds for the executor.
func (m *Machine) Explain(s *sched.Schedule, layout []int, blockBytes int) (*Breakdown, error) {
	prog, err := sched.Compile(s)
	if err != nil {
		return nil, err
	}
	return m.ExplainProgram(prog, layout, blockBytes)
}

// ExplainProgram is Explain for an already-compiled program. Stage indices
// of the result are positions in prog.Stages (the pricing view), the same
// index space sched.Program.PriceStageMap and obs profiles bin against.
// Total sums the stages in PriceProgram's order, so it equals its price.
func (m *Machine) ExplainProgram(prog *sched.Program, layout []int, blockBytes int) (*Breakdown, error) {
	sc := m.getScratch()
	defer m.scratch.Store(sc)
	if err := m.checkArgs(sc, prog.P, layout, blockBytes); err != nil {
		return nil, err
	}
	out := &Breakdown{}
	for idx := range prog.Stages {
		st := &prog.Stages[idx]
		t, err := m.priceStage(sc, st.Transfers, layout, blockBytes)
		if err != nil {
			return nil, err
		}
		var bytes int64
		for i := range st.Transfers {
			bytes += int64(st.Transfers[i].N) * int64(blockBytes)
		}
		out.Stages = append(out.Stages, StageCost{
			Index:      idx,
			Pre:        st.Pre,
			Repeat:     st.Repeat,
			Seconds:    t,
			Transfers:  len(st.Transfers),
			BytesMoved: bytes,
		})
		out.Total += t * float64(st.Repeat)
	}
	if prog.PostCopyBlocks > 0 {
		out.PostCopySeconds = float64(prog.PostCopyBlocks) * float64(blockBytes) / m.Params.MemCopy
		out.Total += out.PostCopySeconds
	}
	return out, nil
}
