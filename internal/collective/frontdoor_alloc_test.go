package collective

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// TestFrontDoorSteadyStateAllocs: selection is one allocation-free table
// lookup on every front door. Each case's budget is what the warm front door
// allocated per rank per call (this harness, p = 16) before they all went
// through selectProgram and the program table: 5 on the flat doors (the
// tracedExecute closure and beginCollective's label lookups), one more for
// the hierarchical doors' Comm.Members copy, one more where the reordered
// allgather's initComm exchange runs (the received input vector is kept, so
// its pooled buffer is not recycled; it was three when one pool served every
// size and recursive doubling's doubling stages evicted each other's
// buffers). Allreduce is held to Broadcast's figure
// instead of its own — it used to build and SHA-256 its schedule on every
// rank of every call (51 allocations here, 82 at p = 64).
func TestFrontDoorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on channel/pool operations")
	}
	const blk = 64
	measure := func(t *testing.T, p int, body func(c *mpi.Comm) error) float64 {
		t.Helper()
		w := startSteadyWorld(p, body)
		defer func() {
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
		}()
		for i := 0; i < 8; i++ {
			if err := w.round(); err != nil {
				t.Fatal(err)
			}
		}
		// No collection while counting: a GC empties the buffer pools, and
		// the mixed-size comparison below is exact.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		perRound := testing.AllocsPerRun(50, func() {
			if err := w.round(); err != nil {
				t.Fatal(err)
			}
		})
		return perRound / float64(p)
	}
	buffers := func(p, n int) (send, recv [][]byte) {
		send, recv = make([][]byte, p), make([][]byte, p)
		for r := range send {
			send[r], recv[r] = input(r, n), make([]byte, p*n)
		}
		return send, recv
	}

	const p = 16
	send, recv := buffers(p, blk)
	large, _ := buffers(p, RabenseifnerThresholdBytes)
	mixedSend, mixedRecv := buffers(p, 16<<10)
	var calls [p]int
	cluster, layout := hierCluster(t, 4, 2, 2, p, topology.BlockBunch)
	hierCfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling}
	mapping := make(core.Mapping, p)
	for j := range mapping {
		mapping[j] = (j + 3) % p
	}
	reordered := make([]*Reordered, p)

	type doorCase struct {
		name   string
		budget float64
		body   func(c *mpi.Comm) error
	}
	cases := []doorCase{
		{"broadcast", 5, func(c *mpi.Comm) error { return Broadcast(c, 0, send[c.Rank()]) }},
		{"allreduce/binomial", 5, func(c *mpi.Comm) error { return Allreduce(c, send[c.Rank()], sumOp) }},
		{"allreduce/rabenseifner", 5, func(c *mpi.Comm) error { return Allreduce(c, large[c.Rank()], sumOp) }},
		// One program alternating two block sizes on one world — what a
		// runtime serving recursive doubling and Bruck sees by construction.
		// It gets the single-size budget: neither the buffer pool nor any
		// per-program memo may depend on calls repeating a size.
		{"allgather/mixed-sizes", 5, func(c *mpi.Comm) error {
			r := c.Rank()
			calls[r]++
			if calls[r]%2 == 0 {
				return Allgather(c, mixedSend[r], mixedRecv[r], AlgRecursiveDoubling)
			}
			return Allgather(c, send[r], recv[r], AlgRecursiveDoubling)
		}},
		{"hierarchical", 6, func(c *mpi.Comm) error {
			return HierarchicalAllgather(c, send[c.Rank()], recv[c.Rank()], func(w int) int { return w / 4 }, hierCfg)
		}},
		{"hierarchical-reordered", 6, func(c *mpi.Comm) error {
			return HierarchicalReorderedAllgather(c, send[c.Rank()], recv[c.Rank()], cluster, layout, hierCfg)
		}},
	}
	for _, alg := range []Algorithm{AlgAuto, AlgRecursiveDoubling, AlgRing, AlgBruck, AlgNeighborExchange} {
		reorderedBudget := 5.0 // ring, neighbour exchange: in-algorithm order fix
		if alg == AlgAuto || alg == AlgRecursiveDoubling || alg == AlgBruck {
			reorderedBudget = 6 // recursive doubling (auto's pick here), Bruck: initComm
		}
		cases = append(cases,
			doorCase{"allgather/" + alg.String(), 5, func(c *mpi.Comm) error {
				return Allgather(c, send[c.Rank()], recv[c.Rank()], alg)
			}},
			doorCase{"reordered/" + alg.String(), reorderedBudget, func(c *mpi.Comm) error {
				if reordered[c.Rank()] == nil {
					re, err := NewReordered(c, mapping, sched.InitComm)
					if err != nil {
						return err
					}
					reordered[c.Rank()] = re
				}
				return reordered[c.Rank()].Allgather(send[c.Rank()], recv[c.Rank()], alg)
			}})
	}
	got := map[string]float64{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clear(reordered)
			got[tc.name] = measure(t, p, tc.body)
			t.Logf("%.2f allocs/rank/call", got[tc.name])
			// Half an allocation per rank of slack absorbs a stray GC
			// emptying the buffer pools mid-measurement.
			if got[tc.name] > tc.budget+0.5 {
				t.Errorf("warm %s allocates %.2f times per rank per call, budget %.0f", tc.name, got[tc.name], tc.budget)
			}
		})
	}
	if mixed, single := got["allgather/mixed-sizes"], got["allgather/recursive-doubling"]; mixed > single+0.05 {
		t.Errorf("alternating two block sizes allocates %.2f per rank per call, one size %.2f: something memoizes or pools per size", mixed, single)
	}
	for _, name := range []string{"allreduce/binomial", "allreduce/rabenseifner"} {
		if got[name] > got["broadcast"]+0.5 {
			t.Errorf("warm %s allocates %.2f per rank per call, Broadcast %.2f at the same p", name, got[name], got["broadcast"])
		}
	}
}
