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

	"repro/internal/sched"
)

// priceLine is one undominated transfer cost line: time(b) = alpha + (n*b)*inv.
type priceLine struct {
	alpha float64 // channel latency term
	n     float64 // blocks transferred, as float64(tr.N)
	inv   float64 // worst effective seconds-per-byte on the path
}

// profileStage is one program stage's envelope.
type profileStage struct {
	repeat float64
	lines  []priceLine
}

// PriceProfile is the size-independent pricing summary of one schedule under
// one layout. Build with Machine.Profile (from a compiled program) or
// Machine.ProfileSchedule (from the schedule itself), evaluate any message
// size with Price. The profile is immutable and safe for concurrent use.
type PriceProfile struct {
	stages  []profileStage
	post    float64 // float64(prog.PostCopyBlocks), 0 when absent
	memCopy float64
}

// Profile aggregates prog's per-stage contention under layout once and
// returns the reusable summary. The cost is about one PriceProgram call;
// every subsequent Price is a handful of multiply-adds per stage.
func (m *Machine) Profile(prog *sched.Program, layout []int) (*PriceProfile, error) {
	return m.profile(context.Background(), prog.P, prog.PostCopyBlocks, layout, len(prog.Stages),
		func(i int) ([]sched.Transfer, int) { return prog.Stages[i].Transfers, prog.Stages[i].Repeat })
}

// ProfileSchedule is Profile for a schedule that has not been compiled: it
// validates s and walks its Pre and main stages in place — the stages, in the
// order, that sched.Compile would copy into a Program — so a caller that only
// prices (mapd's compute path) neither copies the transfer lists nor hashes
// them for the compile cache. The result equals Profile(Compile(s)) exactly.
// s is read, never written, and must not change during the call. ctx is
// consulted once per stage; an expired ctx abandons the walk with its error.
func (m *Machine) ProfileSchedule(ctx context.Context, s *sched.Schedule, layout []int) (*PriceProfile, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pre := len(s.Pre)
	return m.profile(ctx, s.P, s.PostCopyBlocks, layout, pre+len(s.Stages),
		func(i int) ([]sched.Transfer, int) {
			if i < pre {
				return s.Pre[i].Transfers, s.Pre[i].Repeats()
			}
			return s.Stages[i-pre].Transfers, s.Stages[i-pre].Repeats()
		})
}

// profile is the one stage walk behind Profile and ProfileSchedule: stage(i)
// yields the i-th priced stage's transfers and its execution count.
func (m *Machine) profile(ctx context.Context, p, postCopyBlocks int, layout []int, stages int, stage func(i int) ([]sched.Transfer, int)) (*PriceProfile, error) {
	if len(layout) < p {
		return nil, fmt.Errorf("simnet: layout covers %d ranks, schedule has %d", len(layout), p)
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	if err := sc.validateLayout(m.Cluster, layout); err != nil {
		return nil, err
	}
	pp := &PriceProfile{
		stages:  make([]profileStage, 0, stages),
		post:    float64(postCopyBlocks),
		memCopy: m.Params.MemCopy,
	}
	for i := 0; i < stages; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		transfers, repeat := stage(i)
		ps := profileStage{repeat: float64(repeat)}
		if len(transfers) > 0 {
			m.aggregateStage(sc, transfers, layout)
			for j := range transfers {
				alpha, inv, err := m.transferLineSparse(sc, transfers, j, layout)
				if err != nil {
					return nil, err
				}
				ps.lines = addLine(ps.lines, priceLine{alpha: alpha, n: float64(transfers[j].N), inv: inv})
			}
		}
		pp.stages = append(pp.stages, ps)
	}
	return pp, nil
}

// addLine inserts l into the envelope, dropping componentwise-dominated
// lines. Rounding monotonicity makes componentwise domination exact: if
// every coefficient of l is <= another line's, l can never exceed it at any
// block size, even after per-operation rounding.
func addLine(lines []priceLine, l priceLine) []priceLine {
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
	total := 0.0
	for i := range pp.stages {
		st := &pp.stages[i]
		worst := 0.0
		for j := range st.lines {
			l := &st.lines[j]
			bytes := l.n * b
			if t := l.alpha + bytes*l.inv; t > worst {
				worst = t
			}
		}
		total += worst * st.repeat
	}
	if pp.post > 0 {
		total += pp.post * b / pp.memCopy
	}
	return total, nil
}
