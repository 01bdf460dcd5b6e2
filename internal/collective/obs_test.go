package collective

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/topology"
)

// runAllgatherWorld runs rounds allgathers of blk-byte blocks on a p-rank
// world configured with cfg, checking the output each round.
func runAllgatherWorld(t *testing.T, p, blk, rounds int, alg Algorithm, cfg Config) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, cfg)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		recv := make([]byte, p*blk)
		for r := 0; r < rounds; r++ {
			if err := Allgather(c, send, recv, alg); err != nil {
				return fmt.Errorf("round %d: %w", r, err)
			}
			for src := 0; src < p; src++ {
				if recv[src*blk] != byte(src) {
					return fmt.Errorf("rank %d round %d: block %d corrupt", c.Rank(), r, src)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderSamplesConfiguredRank: rank 0 records one profile per
// execution into the world's flight recorder, and its stage bins, bytes and
// transfers carry real measurements.
func TestFlightRecorderSamplesConfiguredRank(t *testing.T) {
	rec := obs.NewRecorder(64)
	const p, blk, rounds = 8, 512, 5
	runAllgatherWorld(t, p, blk, rounds, AlgRing, Config{Flight: rec})
	snap := rec.Snapshot()
	if len(snap) != rounds {
		t.Fatalf("recorded %d profiles, want %d (one per round)", len(snap), rounds)
	}
	for i, prof := range snap {
		if prof.Rank != 0 {
			t.Fatalf("profile %d sampled on rank %d, want rank 0", i, prof.Rank)
		}
		if prof.Program != "ring" || prof.P != p || prof.BlockBytes != blk {
			t.Fatalf("profile %d = %+v, want ring/%d at %d B", i, prof, p, blk)
		}
		if prof.TotalSeconds <= 0 || prof.Transfers == 0 || prof.Bytes == 0 {
			t.Fatalf("profile %d carries no measurements: %+v", i, prof)
		}
		if prof.Stages != 1 || prof.StageSeconds[0] != prof.TotalSeconds {
			t.Fatalf("ring profile %d stage bins wrong: %+v", i, prof)
		}
	}
}

// TestExecutorCalibratorJoin wires a calibrator through Config and checks
// that real measured executions join against the cost model: one report
// entry per program with per-stage skew populated.
func TestExecutorCalibratorJoin(t *testing.T) {
	m := synthFatTree64(t)
	layout := topology.MustLayout(m.Cluster, 64, topology.BlockBunch)
	cal := obs.NewCalibrator(m, layout)
	const p, blk, rounds = 64, 2048, 3
	runAllgatherWorld(t, p, blk, rounds, AlgRing, Config{Calibrator: cal})
	r := cal.Report()
	if len(r.Entries) != 1 {
		t.Fatalf("calibration report holds %d entries, want 1: %+v", len(r.Entries), r.Entries)
	}
	e := r.Entries[0]
	if e.Program != "ring" || e.P != p || e.Samples != rounds {
		t.Fatalf("entry = %+v, want ring/%d with %d samples", e, p, rounds)
	}
	if e.LastRatio <= 0 || e.MeanRatio <= 0 {
		t.Fatalf("measured/predicted ratios not positive: %+v", e)
	}
	if len(e.Stages) != 1 || e.Stages[0].Predicted <= 0 || e.Stages[0].Measured <= 0 {
		t.Fatalf("per-stage skew missing: %+v", e.Stages)
	}
	if r.Topology != cal.Topology() {
		t.Fatalf("report topology %q, want %q", r.Topology, cal.Topology())
	}
}

// TestWatchdogDumpsFlightRing: when the trace watchdog declares a world
// dead, the flight ring lands on disk next to the blocked-rank report.
func TestWatchdogDumpsFlightRing(t *testing.T) {
	dir := t.TempDir()
	obs.SetWatchdogDumpDir(dir)
	defer obs.SetWatchdogDumpDir("")
	before := obs.LastWatchdogDump()

	err := mpi.Run(4, func(c *mpi.Comm) error {
		send := make([]byte, 64)
		recv := make([]byte, 4*64)
		if err := Allgather(c, send, recv, AlgRing); err != nil {
			return err
		}
		if c.Rank() == 0 {
			_, err := c.Recv(1, 4242) // never sent: the watchdog must fire
			return err
		}
		return nil
	}, mpi.WithTimeout(200*time.Millisecond))
	if err == nil {
		t.Fatal("deadlocked world returned no error")
	}

	path := obs.LastWatchdogDump()
	if path == "" || path == before {
		t.Fatal("watchdog fired but no flight dump was written")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d obs.Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if d.Reason == "" || len(d.Profiles) == 0 {
		t.Fatalf("dump = reason %q with %d profiles, want the pre-deadlock allgather present",
			d.Reason, len(d.Profiles))
	}
}
