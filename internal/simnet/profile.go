// Size-sweep pricing profiles: the contention aggregation of PriceProgram
// is independent of the message size, so a (program, layout) pair priced at
// many sizes — adaptive policies, figure sweeps, batch mapping — can pay for
// the per-transfer pass once and evaluate every size from a tiny summary.
//
// A transfer's time is alpha + (N*blockBytes)*inv where alpha, N and inv
// (the worst seconds-per-byte across the shared resources on its path) do
// not depend on blockBytes. A stage's time is the max of its transfers'
// lines, so per stage the profile keeps only the Pareto frontier of
// (alpha, N, inv) triples: a line componentwise below another can never win
// the max at any size. Because float rounding is monotone, dropping
// dominated lines is exact — Profile().Price(b) equals PriceProgram(b) bit
// for bit, and the equivalence test enforces that.
package simnet

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// profileStage is one program stage's envelope.
type profileStage struct {
	repeat float64
	lines  []costLine // the undominated cost lines
}

// PriceProfile is the size-independent pricing summary of one schedule under
// one layout. Build with Machine.Profile (from a compiled program),
// ProfileSchedule (from the schedule itself) or ProfileReordered (under a
// rank reordering), evaluate any message size with Price. The profile is
// immutable and safe for concurrent use.
type PriceProfile struct {
	stages  []profileStage
	post    float64 // float64(prog.PostCopyBlocks), 0 when absent
	memCopy float64
}

// Profile aggregates prog's per-stage contention under layout once and
// returns the reusable summary. The cost is about one PriceProgram call;
// every subsequent Price is a handful of multiply-adds per stage.
func (m *Machine) Profile(prog *sched.Program, layout []int) (*PriceProfile, error) {
	return m.profile(context.Background(), prog.Schedule(), layout)
}

// ProfileSchedule is Profile for a schedule that has not been compiled: it
// validates s and walks it in place, so a caller that only prices (mapd's
// compute path) does not hash it for the compile cache. The result equals
// Profile(Compile(s)) exactly. s is read, never written, and must not
// change during the call. ctx is consulted once per stage; an expired ctx
// abandons the walk with its error.
func (m *Machine) ProfileSchedule(ctx context.Context, s *sched.Schedule, layout []int) (*PriceProfile, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return m.profile(ctx, s, layout)
}

// ProfileReordered profiles s as the reordered communicator runs it: with
// mode's order fix (paper Section V-B) attached for mapping, and new rank r
// on core layout[mapping[r]]. Against ProfileSchedule(ctx, s, layout) it is
// the paper's cost comparison; a mapping that is no permutation is an error.
func (m *Machine) ProfileReordered(ctx context.Context, s *sched.Schedule, layout []int, mapping core.Mapping, mode sched.OrderMode) (*PriceProfile, error) {
	// Apply first: it rejects a short mapping or an out-of-range slot before
	// the order fix inverts it; the layout check rejects a repeated slot.
	eff, err := mapping.Apply(layout)
	if err != nil {
		return nil, err
	}
	withOrder, err := sched.WithOrderPreservation(s, mapping, mode)
	if err != nil {
		return nil, err
	}
	return m.ProfileSchedule(ctx, withOrder, eff)
}

// profile is the stage walk behind Profile and ProfileSchedule: it keeps
// each stage's envelope of cost lines.
func (m *Machine) profile(ctx context.Context, s *sched.Schedule, layout []int) (*PriceProfile, error) {
	pp := &PriceProfile{
		stages:  make([]profileStage, 0, len(s.Pre)+len(s.Stages)),
		post:    float64(s.PostCopyBlocks),
		memCopy: m.Params.MemCopy,
	}
	// A profile serves every size; PriceProfile.Price checks each one.
	var lines []costLine
	envelope := func(l costLine) { lines = addLine(lines, l) }
	err := m.walk(ctx, s, layout, 1, envelope, func(_ *priceScratch, _ int, st *sched.Stage) error {
		pp.stages = append(pp.stages, profileStage{repeat: float64(st.Repeats()), lines: lines})
		lines = nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pp, nil
}

// addLine inserts l into the envelope, dropping componentwise-dominated
// lines. Rounding monotonicity makes componentwise domination exact: if
// every coefficient of l is <= another line's, l can never exceed it at any
// block size, even after per-operation rounding.
func addLine(lines []costLine, l costLine) []costLine {
	for i := range lines {
		if lines[i].alpha >= l.alpha && lines[i].n >= l.n && lines[i].inv >= l.inv {
			return lines // dominated by an existing line
		}
	}
	keep := lines[:0]
	for i := range lines {
		if l.alpha >= lines[i].alpha && l.n >= lines[i].n && l.inv >= lines[i].inv {
			continue // existing line dominated by l
		}
		keep = append(keep, lines[i])
	}
	return append(keep, l)
}

// Price evaluates the profile at one block size, reproducing
// PriceProgram(prog, layout, blockBytes) exactly: same per-transfer
// operations in the same order, with the max taken over the surviving
// envelope lines.
func (pp *PriceProfile) Price(blockBytes int) (float64, error) {
	if blockBytes <= 0 {
		return 0, fmt.Errorf("simnet: block size must be positive, got %d", blockBytes)
	}
	b := float64(blockBytes)
	stage, total := slowest{b: b}, 0.0
	for i := range pp.stages {
		st := &pp.stages[i]
		for _, l := range st.lines {
			stage.add(l)
		}
		total += stage.take() * st.repeat
	}
	if pp.post > 0 {
		total += pp.post * b / pp.memCopy
	}
	return total, nil
}
