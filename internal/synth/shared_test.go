package synth

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// TestNothingWritesASharedSchedule pins the schedule-immutability contract
// now that a compiled Program prices the very Schedule it was compiled from:
// compiling, expanding, pricing, profiling, explaining, pipeline-pricing and
// link-loading a schedule leave its fingerprint as it was, and the program's
// pricing view is the schedule itself. It covers every registry builder,
// every torus-native builder, an order-fixed recursive doubling under both
// order fixes, a hierarchical composition, and stage-op mutants alongside
// the base they share transfer arrays with.
func TestNothingWritesASharedSchedule(t *testing.T) {
	const p, blockBytes = 16, 4096
	m := fatTree64(t)
	layout := topology.MustLayout(m.Cluster, p, topology.CyclicBunch)

	schedules := map[string]*sched.Schedule{}
	add := func(name string, s *sched.Schedule, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		schedules[name] = s
	}
	for _, fam := range sched.Families() {
		for _, name := range fam.BuilderNames() {
			s, err := fam.Build(name, p)
			add(fam.Name+"/"+name, s, err)
		}
		if fam.TorusBuilder != nil {
			s, err := fam.TorusBuilder([]int{2, 2, 4})
			add(fam.Name+"/torus-native", s, err)
		}
	}
	rd, err := sched.RecursiveDoubling(p)
	add("recursive-doubling", rd, err)
	mapping := make(core.Mapping, p)
	for r := range mapping {
		mapping[r] = (r * 5) % p
	}
	for _, mode := range []sched.OrderMode{sched.InitComm, sched.EndShuffle} {
		s, err := sched.WithOrderPreservation(rd, mapping, mode)
		add(fmt.Sprintf("recursive-doubling+%v", mode), s, err)
	}
	groups := sched.Groups(layout, m.Cluster.NodeOf)
	s, err := sched.Hierarchical(groups, sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling})
	add("hierarchical", s, err)
	bruck, err := sched.Bruck(p)
	add("bruck", bruck, err)
	for _, op := range []StageOp{{Op: "merge", Stage: 0}, {Op: "split", Stage: 1}, {Op: "swap", Stage: 2}} {
		s, err := withStageOp(bruck, op)
		add(fmt.Sprintf("bruck~%s%d", op.Op, op.Stage), s, err)
	}

	before := map[string]string{}
	for name, s := range schedules {
		before[name] = sched.Fingerprint(s)
	}
	for name, s := range schedules {
		prog, err := sched.Compile(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prog.Schedule() != s {
			t.Errorf("%s: the program prices another schedule than it was compiled from", name)
		}
		// A mutant may not verify, so its executable view may be refused;
		// building it must still leave the schedule alone.
		_ = prog.EnsureExecutable()
		if _, err := m.PriceProgram(prog, layout, blockBytes); err != nil {
			t.Fatalf("%s: PriceProgram: %v", name, err)
		}
		if _, err := m.Price(s, layout, blockBytes); err != nil {
			t.Fatalf("%s: Price: %v", name, err)
		}
		if _, err := m.Profile(prog, layout); err != nil {
			t.Fatalf("%s: Profile: %v", name, err)
		}
		if _, err := m.ProfileSchedule(context.Background(), s, layout); err != nil {
			t.Fatalf("%s: ProfileSchedule: %v", name, err)
		}
		if _, err := m.Explain(s, layout, blockBytes); err != nil {
			t.Fatalf("%s: Explain: %v", name, err)
		}
		if _, err := m.ExplainProgram(prog, layout, blockBytes); err != nil {
			t.Fatalf("%s: ExplainProgram: %v", name, err)
		}
		if _, err := m.PricePipelined(s, layout, blockBytes); err != nil {
			t.Fatalf("%s: PricePipelined: %v", name, err)
		}
		if _, err := m.MaxStageLinkLoads(prog, layout); err != nil {
			t.Fatalf("%s: MaxStageLinkLoads: %v", name, err)
		}
	}
	// Schedules share transfer arrays (a mutant with its base, an order fix
	// with its input), so every fingerprint is checked after all the work.
	for name, s := range schedules {
		if got := sched.Fingerprint(s); got != before[name] {
			t.Errorf("%s: the schedule changed under compile, expand and pricing", name)
		}
	}
}
