package collective

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// TestExecuteGatherRejectsWrongRoot: a compiled gather program serves any
// root of the communicator through the executor's rank rotation, so the only
// wrong root left is one outside it — which must fail on every rank, before
// any message moves.
func TestExecuteGatherRejectsWrongRoot(t *testing.T) {
	const p, blk = 4, 8
	prog, err := scheduleBuilt(sched.FamilyGather, "binomial-gather", p)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(p, func(c *mpi.Comm) error {
		recv := make([]byte, p*blk)
		for _, root := range []int{-1, p} {
			if err := ExecuteGather(c, prog, root, input(c.Rank(), blk), recv); err == nil {
				return fmt.Errorf("rank %d: gather root %d accepted", c.Rank(), root)
			}
		}
		// A root other than the program's own works.
		if err := ExecuteGather(c, prog, 1, input(c.Rank(), blk), recv); err != nil {
			return err
		}
		if c.Rank() == 1 && !bytes.Equal(recv, expected(p, blk)) {
			return fmt.Errorf("gather to root 1 assembled the wrong buffer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateNeighborExchangeMetricsLabel pins the p=1 neighbour-exchange
// fix: the degenerate schedule is labelled by the resolved algorithm, so
// schedule_executions_total{algorithm="neighbor-exchange"} — not "ring" —
// increments, agreeing with the allgather/neighbor-exchange trace span.
func TestDegenerateNeighborExchangeMetricsLabel(t *testing.T) {
	neBefore := scheduleExecutions.With("algorithm", "neighbor-exchange").Value()
	ringBefore := scheduleExecutions.With("algorithm", "ring").Value()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		send := input(0, 16)
		recv := make([]byte, 16)
		if err := Allgather(c, send, recv, AlgNeighborExchange); err != nil {
			return err
		}
		if !bytes.Equal(recv, send) {
			return fmt.Errorf("p=1 neighbor exchange output differs from input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := scheduleExecutions.With("algorithm", "neighbor-exchange").Value(); got != neBefore+1 {
		t.Errorf("neighbor-exchange executions = %d, want %d", got, neBefore+1)
	}
	if got := scheduleExecutions.With("algorithm", "ring").Value(); got != ringBefore {
		t.Errorf("ring executions moved to %d (from %d) for a neighbor-exchange call", got, ringBefore)
	}
}

// steadyWorld is a persistent world whose ranks execute one collective per
// trigger, so a caller can measure the steady-state cost of executeProgram
// without re-paying world construction.
type steadyWorld struct {
	triggers []chan struct{}
	done     chan error
	stop     chan struct{}
	finished chan error
}

// startSteadyWorld launches p ranks that run body once per trigger.
func startSteadyWorld(p int, body func(c *mpi.Comm) error) *steadyWorld {
	w := &steadyWorld{
		triggers: make([]chan struct{}, p),
		done:     make(chan error, p),
		stop:     make(chan struct{}),
		finished: make(chan error, 1),
	}
	for r := range w.triggers {
		w.triggers[r] = make(chan struct{}, 1)
	}
	go func() {
		w.finished <- mpi.Run(p, func(c *mpi.Comm) error {
			for {
				select {
				case <-w.stop:
					return nil
				case <-w.triggers[c.Rank()]:
					w.done <- body(c)
				}
			}
		}, mpi.WithTimeout(5*time.Minute))
	}()
	return w
}

// round triggers one collective on every rank and waits for completion.
func (w *steadyWorld) round() error {
	for _, tr := range w.triggers {
		tr <- struct{}{}
	}
	var first error
	for range w.triggers {
		if err := <-w.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close shuts the world down.
func (w *steadyWorld) close() error {
	close(w.stop)
	return <-w.finished
}

// TestExecuteProgramSteadyStateAllocs extends the metrics AllocsPerRun
// discipline to the executor: once buffers and metric handles are warm, a
// full collective round (every rank staging sends into pooled
// buffers, lending them to the runtime, consuming and recycling receives)
// must not allocate — for the allgather step loop, for the rooted entries
// whose staging buffers come from the same pool (at the program's root and
// rotated off it, which adds the pooled placement table), and for the
// hierarchical composition's plan lookup plus program. Channel signalling of
// the harness itself is allocation-free, so the measurement isolates the
// execute path.
func TestExecuteProgramSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on channel/pool operations")
	}
	const p, blk = 4, 64
	compiled := func(f sched.FamilyID, builder string) *sched.Program {
		prog, err := scheduleBuilt(f, builder, p)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	ring, bcast := compiled(sched.FamilyAllgather, "ring"), compiled(sched.FamilyBroadcast, "binomial-broadcast")
	gather, scatter := compiled(sched.FamilyGather, "binomial-gather"), compiled(sched.FamilyScatter, "binomial-scatter")
	hierCfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling}
	nodes := []int{0, 0, 1, 1}
	want := expected(p, blk)
	wantAllgather := func(c *mpi.Comm) error {
		if !bytes.Equal(recvScratch[c.Rank()], want) {
			return fmt.Errorf("rank %d: wrong allgather output", c.Rank())
		}
		return nil
	}
	cases := []struct {
		name string
		body func(c *mpi.Comm) error
	}{
		{"allgather", func(c *mpi.Comm) error {
			if err := ExecuteAllgather(c, ring, inputs[c.Rank()], recvScratch[c.Rank()], nil); err != nil {
				return err
			}
			return wantAllgather(c)
		}},
		{"broadcast", func(c *mpi.Comm) error { return executeBroadcast(c, bcast, 0, recvScratch[c.Rank()]) }},
		{"broadcast-off-root", func(c *mpi.Comm) error { return executeBroadcast(c, bcast, 2, recvScratch[c.Rank()]) }},
		{"gather", func(c *mpi.Comm) error {
			return ExecuteGather(c, gather, 0, inputs[c.Rank()], recvScratch[c.Rank()])
		}},
		{"gather-off-root", func(c *mpi.Comm) error {
			return ExecuteGather(c, gather, 2, inputs[c.Rank()], recvScratch[c.Rank()])
		}},
		{"scatter", func(c *mpi.Comm) error {
			return executeScatter(c, scatter, 0, recvScratch[c.Rank()], sendScratch[c.Rank()])
		}},
		{"scatter-off-root", func(c *mpi.Comm) error {
			return executeScatter(c, scatter, 2, recvScratch[c.Rank()], sendScratch[c.Rank()])
		}},
		{"hierarchical", func(c *mpi.Comm) error {
			prog, err := hierPlan(nodes, nil, hierCfg, func() (*sched.Schedule, error) {
				return sched.Hierarchical([][]int{{0, 1}, {2, 3}}, hierCfg)
			})
			if err != nil {
				return err
			}
			if err := ExecuteAllgather(c, prog, inputs[c.Rank()], recvScratch[c.Rank()], nil); err != nil {
				return err
			}
			return wantAllgather(c)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := startSteadyWorld(p, tc.body)
			defer func() {
				if err := w.close(); err != nil {
					t.Fatal(err)
				}
			}()
			// Warm the pools and the inbox capacities beyond AllocsPerRun's
			// own single warm-up run.
			for i := 0; i < 8; i++ {
				if err := w.round(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if err := w.round(); err != nil {
					t.Fatal(err)
				}
			})
			// The measured value is 0; the threshold leaves room for a stray
			// GC clearing the buffer pool mid-measurement, while still
			// failing if per-step or per-call garbage (a make()d staging
			// buffer is one allocation per rank) returns.
			if avg > 0.5 {
				t.Errorf("steady-state %s round allocates %.2f times, want 0", tc.name, avg)
			}
		})
	}
}

var (
	inputs      = [][]byte{input(0, 64), input(1, 64), input(2, 64), input(3, 64)}
	recvScratch = [][]byte{
		make([]byte, 4*64), make([]byte, 4*64), make([]byte, 4*64), make([]byte, 4*64),
	}
	sendScratch = [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64), make([]byte, 64)}
)
