package collective

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// countNamed tallies collective enter/exit annotations per name.
func countNamed(rec *trace.Recorder, kind trace.Kind) map[string]int {
	out := map[string]int{}
	for _, e := range rec.All() {
		if e.Kind == kind {
			out[e.Name]++
		}
	}
	return out
}

func TestAllgatherAnnotatesTrace(t *testing.T) {
	const p, blk = 4, 16
	for _, alg := range []Algorithm{AlgRing, AlgRecursiveDoubling, AlgBruck} {
		rec := trace.NewRecorder()
		err := mpi.Run(p, func(c *mpi.Comm) error {
			send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
			recv := make([]byte, p*blk)
			return Allgather(c, send, recv, alg)
		}, mpi.WithTracer(rec))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		name := "allgather/" + alg.String()
		enters := countNamed(rec, trace.KindCollectiveEnter)
		exits := countNamed(rec, trace.KindCollectiveExit)
		if enters[name] != p || exits[name] != p {
			t.Errorf("%v: enter/exit = %d/%d, want %d/%d (all: %v)",
				alg, enters[name], exits[name], p, p, enters)
		}
	}
}

func TestRingStagesAnnotated(t *testing.T) {
	const p, blk = 4, 8
	rec := trace.NewRecorder()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgRing)
	}, mpi.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	// One executor stage point per rank per expanded ring stage.
	if got := rec.Count(trace.KindPoint); got != p*(p-1) {
		t.Errorf("stage points = %d, want %d", got, p*(p-1))
	}
}

func TestHierarchicalPhasesAnnotated(t *testing.T) {
	const p, blk = 8, 8
	rec := trace.NewRecorder()
	flight := obs.NewRecorder(8)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Flight: flight})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
		recv := make([]byte, p*blk)
		return HierarchicalAllgather(c, send, recv,
			func(worldRank int) int { return worldRank / 2 },
			sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling})
	}, mpi.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	// One span per rank, named after the compiled composition.
	const span = "allgather/hierarchical-non-linear-recursive-doubling"
	enters := countNamed(rec, trace.KindCollectiveEnter)
	exits := countNamed(rec, trace.KindCollectiveExit)
	if enters[span] != p || exits[span] != p {
		t.Errorf("span %q enter/exit = %d/%d, want %d/%d (all: %v)", span, enters[span], exits[span], p, p, enters)
	}
	// The phases are stages of one program now: 4 nodes x 2 ranks is one
	// gather stage, two recursive-doubling stages among the leaders and one
	// broadcast stage, and every rank marks each stage it takes part in —
	// leaders all four, the others the first and the last.
	points := 0
	for _, e := range rec.All() {
		if e.Kind == trace.KindPoint {
			if !strings.HasPrefix(e.Name, "sched hierarchical-non-linear-recursive-doubling stage ") {
				t.Errorf("unexpected trace point %q", e.Name)
			}
			points++
		}
	}
	if want := 4*4 + 4*2; points != want {
		t.Errorf("executor stage points = %d, want %d", points, want)
	}
	// Running on the executor, the composition reaches the flight recorder
	// with its three phases binned as four stages.
	snap := flight.Snapshot()
	if len(snap) != 1 || snap[0].Program != "hierarchical-non-linear-recursive-doubling" || snap[0].Stages != 4 {
		t.Errorf("flight recorder holds %+v, want one 4-stage hierarchical profile", snap)
	}
	// No communicator is split or reordered per call.
	if n := rec.Count(trace.KindCommSplit) + rec.Count(trace.KindCommReorder); n != 0 {
		t.Errorf("hierarchical run recorded %d comm-split/reorder events, want 0", n)
	}
}

func TestUntracedWorldRecordsNothing(t *testing.T) {
	const p, blk = 4, 8
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Tracing() {
			t.Error("Tracing() true without a tracer")
		}
		send := bytes.Repeat([]byte{byte(c.Rank())}, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgRing)
	})
	if err != nil {
		t.Fatal(err)
	}
}
