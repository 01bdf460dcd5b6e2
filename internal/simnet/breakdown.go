package simnet

import (
	"context"
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

// Explain prices a schedule like Price but returns the per-stage detail.
func (m *Machine) Explain(s *sched.Schedule, layout []int, blockBytes int) (*Breakdown, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return m.explain(s, layout, blockBytes)
}

// ExplainProgram is Explain for an already-compiled program. Stage indices
// of the result are pricing-view positions (Pre stages first), the same
// index space sched.Program.PriceStageMap and obs profiles bin against.
// Total sums the stages in PriceProgram's order, so it equals its price.
func (m *Machine) ExplainProgram(prog *sched.Program, layout []int, blockBytes int) (*Breakdown, error) {
	return m.explain(prog.Schedule(), layout, blockBytes)
}

// explain is the stage walk behind Explain and ExplainProgram.
func (m *Machine) explain(s *sched.Schedule, layout []int, blockBytes int) (*Breakdown, error) {
	stage, out := slowest{b: float64(blockBytes)}, &Breakdown{}
	err := m.walk(context.Background(), s, layout, blockBytes, stage.add, func(_ *priceScratch, i int, st *sched.Stage) error {
		t := stage.take()
		var bytes int64
		for j := range st.Transfers {
			bytes += int64(st.Transfers[j].N) * int64(blockBytes)
		}
		out.Stages = append(out.Stages, StageCost{
			Index:      i,
			Pre:        i < len(s.Pre),
			Repeat:     st.Repeats(),
			Seconds:    t,
			Transfers:  len(st.Transfers),
			BytesMoved: bytes,
		})
		out.Total += t * float64(st.Repeats())
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.PostCopyBlocks > 0 {
		out.PostCopySeconds = float64(s.PostCopyBlocks) * float64(blockBytes) / m.Params.MemCopy
		out.Total += out.PostCopySeconds
	}
	return out, nil
}
