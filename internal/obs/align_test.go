package obs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// alignPrograms builds the shapes the Explain↔profile join must survive:
// a folded-Repeat stage (ring: one pricing stage expanded p-1 times), many
// single-repeat stages (recursive doubling, Bruck), and a Pre stage that is
// priced but never executed (recursive doubling under an InitComm order
// fix).
func alignPrograms(t *testing.T, p int) []*sched.Program {
	t.Helper()
	var progs []*sched.Program
	for _, build := range []func(int) (*sched.Schedule, error){
		sched.Ring, sched.RecursiveDoubling, sched.Bruck,
	} {
		s, err := build(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sched.CompileCached(s)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	// Recursive doubling under a swapped mapping with the InitComm fix:
	// the only builder path that produces Pre stages.
	s, err := sched.RecursiveDoubling(p)
	if err != nil {
		t.Fatal(err)
	}
	m := make(core.Mapping, p)
	for i := range m {
		m[i] = i
	}
	m[0], m[1] = 1, 0
	fixed, err := sched.WithOrderPreservation(s, m, sched.InitComm)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Schedule().Pre) == 0 {
		t.Fatalf("order-fixed program lost its Pre stage: %+v", priceView(prog))
	}
	return append(progs, prog)
}

// TestPriceStageMapAlignment pins the contract the flight recorder and
// calibrator join on: the Repeat-preserving pricing view maps 1:1 onto the
// executed stage stream — each non-Pre pricing stage appears exactly Repeat
// consecutive times in PriceStageMap, Pre stages never appear, and the map
// covers every executable stage.
func TestPriceStageMapAlignment(t *testing.T) {
	for _, prog := range alignPrograms(t, 16) {
		if err := prog.EnsureExecutable(); err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		pm := prog.PriceStageMap()
		if len(pm) != len(prog.ExecStages()) {
			t.Fatalf("%s: PriceStageMap has %d entries for %d exec stages",
				prog.Name, len(pm), len(prog.ExecStages()))
		}
		// Walk the map: pricing indices must be non-decreasing, in range,
		// never Pre, and appear exactly Repeat times.
		view := priceView(prog)
		seen := make([]int, len(view))
		prev := int32(-1)
		for e, si := range pm {
			if si < 0 || int(si) >= len(view) {
				t.Fatalf("%s: exec stage %d maps to pricing index %d of %d",
					prog.Name, e, si, len(view))
			}
			if si < prev {
				t.Fatalf("%s: pricing indices regress at exec stage %d (%d after %d)",
					prog.Name, e, si, prev)
			}
			if view[si].Pre {
				t.Fatalf("%s: exec stage %d maps to Pre pricing stage %d", prog.Name, e, si)
			}
			seen[si]++
			prev = si
		}
		for si, st := range view {
			want := st.Repeat
			if st.Pre {
				want = 0
			}
			if seen[si] != want {
				t.Fatalf("%s: pricing stage %d (pre=%v repeat=%d) appears %d times in the exec stream",
					prog.Name, si, st.Pre, st.Repeat, seen[si])
			}
		}
	}
}

// TestExplainProgramMatchesProfileBins pins the other half of the join: the
// breakdown's stage indices are pricing-view positions, so a profile
// binned through PriceStageMap lines up bin-for-bin — including Pre stages,
// whose predicted cost exists while their measured bin stays empty.
func TestExplainProgramMatchesProfileBins(t *testing.T) {
	c, err := topology.NewCluster(4, 2, 4, topology.TwoLevelFatTree(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := simnet.NewMachine(c, simnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(c, 16, topology.BlockBunch)
	for _, prog := range alignPrograms(t, 16) {
		bd, err := m.ExplainProgram(prog, layout, 2048)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		view := priceView(prog)
		if len(bd.Stages) != len(view) {
			t.Fatalf("%s: breakdown has %d stages, pricing view %d",
				prog.Name, len(bd.Stages), len(view))
		}
		for i, sc := range bd.Stages {
			if sc.Index != i {
				t.Fatalf("%s: breakdown stage %d reports index %d", prog.Name, i, sc.Index)
			}
			if sc.Pre != view[i].Pre || sc.Repeat != view[i].Repeat {
				t.Fatalf("%s: breakdown stage %d = pre %v x%d, pricing view pre %v x%d",
					prog.Name, i, sc.Pre, sc.Repeat, view[i].Pre, view[i].Repeat)
			}
		}
		// A model-faithful profile fills exactly the non-Pre bins.
		prof := syntheticProfile(prog, bd, 2048)
		if int(prof.Stages) != len(view) {
			t.Fatalf("%s: profile declares %d stages, want %d", prog.Name, prof.Stages, len(view))
		}
		for i, sc := range bd.Stages {
			got := prof.StageSeconds[i]
			if sc.Pre {
				if got != 0 {
					t.Fatalf("%s: Pre stage %d has measured time %g", prog.Name, i, got)
				}
				continue
			}
			want := sc.Seconds * float64(sc.Repeat)
			if got != want {
				t.Fatalf("%s: stage %d bin = %g, want %g", prog.Name, i, got, want)
			}
		}
	}
}

// viewStage is one stage of a program's pricing view.
type viewStage struct {
	Pre    bool
	Repeat int
}

// priceView lists prog's pricing view: its schedule's Pre stages, then its
// main stages.
func priceView(prog *sched.Program) []viewStage {
	var view []viewStage
	for _, st := range prog.Schedule().Pre {
		view = append(view, viewStage{Pre: true, Repeat: st.Repeats()})
	}
	for _, st := range prog.Schedule().Stages {
		view = append(view, viewStage{Repeat: st.Repeats()})
	}
	return view
}
