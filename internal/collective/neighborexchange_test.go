package collective

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

func TestNeighborExchangeAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 8, 12, 16, 30} {
		runAllgather(t, p, 16, func(c *mpi.Comm, send, recv []byte) error {
			return Allgather(c, send, recv, AlgNeighborExchange)
		})
	}
}

func TestNeighborExchangeRejectsOdd(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if err := Allgather(c, make([]byte, 4), make([]byte, 12), AlgNeighborExchange); err == nil {
			return fmt.Errorf("odd size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborExchangeWithPlacement(t *testing.T) {
	// Reversed placement relocates every contributor's block.
	const p, blk = 8, 8
	prog, err := scheduleBuilt(sched.FamilyAllgather, AlgNeighborExchange.String(), p)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(p, func(c *mpi.Comm) error {
		place := func(r int) int { return p - 1 - r }
		send := input(c.Rank(), blk)
		recv := make([]byte, p*blk)
		if err := ExecuteAllgather(c, prog, send, recv, place); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			got := recv[(p-1-r)*blk : (p-r)*blk]
			want := input(r, blk)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("block of rank %d misplaced", r)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborExchangeScheduleVerifies(t *testing.T) {
	for _, p := range []int{2, 4, 6, 8, 12, 16, 30, 64, 100} {
		s, err := sched.NeighborExchange(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		if got, want := len(s.Stages), p/2; p > 2 && got != want {
			t.Errorf("p=%d: %d stages, want %d", p, got, want)
		}
	}
	if _, err := sched.NeighborExchange(5); err == nil {
		t.Error("odd count accepted")
	}
	if _, err := sched.NeighborExchange(0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestNeighborExchangeScheduleMatchesRuntime(t *testing.T) {
	const p, blk = 12, 32
	s, err := sched.NeighborExchange(p)
	if err != nil {
		t.Fatal(err)
	}
	stats := mpi.NewStats()
	err = mpi.Run(p, func(c *mpi.Comm) error {
		return Allgather(c, input(c.Rank(), blk), make([]byte, p*blk), AlgNeighborExchange)
	}, mpi.WithStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	requireTraffic(t, s, blk, stats)
}
