package collective

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/synth"
	"repro/internal/topology"
)

// synthFatTree64 is the acceptance-point machine: 8 nodes x 2 sockets x 4
// cores under a two-level fat tree, 64 ranks total.
func synthFatTree64(t testing.TB) *simnet.Machine {
	t.Helper()
	c, err := topology.NewCluster(8, 2, 4, topology.TwoLevelFatTree(2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := simnet.NewMachine(c, simnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSynthTableEndToEnd is the PR's acceptance criterion: on the 64-rank
// fat tree at 2 KiB blocks the search finds a schedule strictly cheaper than
// the hand-coded selection (ring), the table-configured front door executes
// it — observable on the synth_table_* and schedule_* metrics — and its
// output is the closed-form allgather result.
func TestSynthTableEndToEnd(t *testing.T) {
	m := synthFatTree64(t)
	const p, blk = 64, 2048

	tab, results, err := synth.BuildTable(m, []synth.Family{synth.Allgather}, []int{p}, []int{blk}, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := tab.Lookup(synth.Allgather, p, blk)
	if !ok {
		t.Fatalf("search found no strict improvement at the acceptance point; results: %+v", results[0])
	}
	if entry.PriceSeconds >= entry.BaselineSeconds {
		t.Fatalf("stored entry is not strictly better: %g vs baseline %g",
			entry.PriceSeconds, entry.BaselineSeconds)
	}
	if entry.BaselineName != "ring" {
		t.Fatalf("expected the hand-coded selection to pick ring at 2 KiB, it picked %q", entry.BaselineName)
	}

	hits0, _ := synth.TableCounters()
	exec0 := scheduleExecutions.With("algorithm", entry.Name).Value()
	ring0 := scheduleExecutions.With("algorithm", "ring").Value()

	sel := synth.NewSelector(tab)
	err = mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Synth: sel})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		got := make([]byte, p*blk)
		if err := Allgather(c, send, got, AlgAuto); err != nil {
			return fmt.Errorf("table-driven allgather: %w", err)
		}
		for r := 0; r < p; r++ {
			for i := 0; i < blk; i++ {
				if got[r*blk+i] != byte(r+i) {
					return fmt.Errorf("rank %d: synthesized schedule output wrong at block %d byte %d", c.Rank(), r, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	hits1, _ := synth.TableCounters()
	if hits1 != hits0+p {
		t.Errorf("synth_table_hits_total advanced by %d, want %d (one per rank)", hits1-hits0, p)
	}
	exec1 := scheduleExecutions.With("algorithm", entry.Name).Value()
	if exec1 != exec0+p {
		t.Errorf("schedule_executions_total{algorithm=%q} advanced by %d, want %d",
			entry.Name, exec1-exec0, p)
	}
	if ring1 := scheduleExecutions.With("algorithm", "ring").Value(); ring1 != ring0 {
		t.Errorf("hand-coded ring still executed %d times under the synth table", ring1-ring0)
	}
}

// TestSynthTableMissFallsBack: a world configured with a table that has no
// entry for the call's shape falls back to the hand-coded selection and
// counts a miss.
func TestSynthTableMissFallsBack(t *testing.T) {
	m := synthFatTree64(t)
	sel := synth.NewSelector(synth.NewTable(m)) // empty table: always misses
	const p, blk = 4, 2048
	_, miss0 := synth.TableCounters()
	ring0 := scheduleExecutions.With("algorithm", "ring").Value()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Synth: sel})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := make([]byte, blk)
		recv := make([]byte, p*blk)
		return Allgather(c, send, recv, AlgAuto)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, miss1 := synth.TableCounters(); miss1 != miss0+p {
		t.Errorf("synth_table_misses_total advanced by %d, want %d", miss1-miss0, p)
	}
	if ring1 := scheduleExecutions.With("algorithm", "ring").Value(); ring1 != ring0+p {
		t.Errorf("fallback ring executed %d times, want %d", ring1-ring0, p)
	}
}

// TestBaselineMatchesFrontDoor pins synth.BaselineRecipe — the comparison
// point every search prices — against the all-to-all rule written out by
// hand. Since the front doors select through the same registry Baseline the
// recipe reads (TestFrontDoorFollowsRegistryBaseline), nothing is left to
// drift for the other families.
func TestBaselineMatchesFrontDoor(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 32, 64, 100, 128} {
		for _, n := range []int{1, 8, 512, 1024, 1025, 2048, 32768, 32768 + 8, 65536} {
			// The baseline switches on the per-pair message size (payload/p):
			// Bruck up to the threshold, pairwise exchange above.
			want := "bruck-alltoall"
			if n/p > 1024 {
				want = "pairwise-alltoall"
			}
			if got := synth.BaselineRecipe(synth.Alltoall, p, n).Alg; got != want {
				t.Errorf("alltoall p=%d n=%d: BaselineRecipe=%q, front door=%q", p, n, got, want)
			}
		}
	}
}

// TestPerWorldTuning: two worlds in one process run different configurations
// — one world's Configure does not leak into the other. World A records into
// its own flight recorder; world B, configured with nothing, records into the
// process-wide ring.
func TestPerWorldTuning(t *testing.T) {
	const p, blk = 4, 2048
	allgather := func(c *mpi.Comm) error {
		return Allgather(c, make([]byte, blk), make([]byte, p*blk), AlgAuto)
	}
	own := obs.NewRecorder(8)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Flight: own})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return allgather(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	profs := own.Snapshot()
	if len(profs) != 1 || profs[0].Rank != 0 {
		t.Fatalf("configured world recorded %+v, want one profile from rank 0", profs)
	}

	shared0 := obs.Flight.Recorded()
	if err := mpi.Run(p, allgather); err != nil {
		t.Fatal(err)
	}
	if got := obs.Flight.Recorded() - shared0; got != 1 {
		t.Errorf("default world recorded %d profiles in the process-wide ring, want 1", got)
	}
	if got := len(own.Snapshot()); got != 1 {
		t.Errorf("default world leaked %d profiles into the other world's recorder", got-1)
	}
}
