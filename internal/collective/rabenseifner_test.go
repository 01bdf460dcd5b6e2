package collective

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// rabenseifner runs the reduce-scatter + allgather program — Rabenseifner's
// bandwidth-optimal large-message allreduce — on the executor.
func rabenseifner(c *mpi.Comm, buf []byte, op ReduceOp) error {
	prog, err := scheduleBuilt(sched.FamilyAllreduce, "reduce-scatter-allgather", c.Size())
	if err != nil {
		return err
	}
	return ExecuteAllreduce(c, prog, buf, op)
}

func TestRabenseifnerAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		elems := 2 * p // divisible by p
		runAllreduce(t, p, elems, func(c *mpi.Comm, buf []byte) error {
			return rabenseifner(c, buf, sumOp)
		})
	}
}

func TestRabenseifnerMatchesFlatAllreduce(t *testing.T) {
	// Same reduction as the binomial reduce+broadcast path, computed by a
	// completely different data movement.
	const p, elems = 8, 16
	want := allreduceWant(p, elems)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		buf := make([]byte, elems*8)
		for j := 0; j < elems; j++ {
			putU64(buf[j*8:], uint64(c.Rank()*j+1))
		}
		if err := rabenseifner(c, buf, sumOp); err != nil {
			return err
		}
		for j := 0; j < elems; j++ {
			if got := getU64(buf[j*8:]); got != want[j] {
				return fmt.Errorf("rank %d elem %d: got %d want %d", c.Rank(), j, got, want[j])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestRabenseifnerErrors(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if err := rabenseifner(c, make([]byte, 24), sumOp); err == nil {
			return fmt.Errorf("non-power-of-two accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(4, func(c *mpi.Comm) error {
		if err := rabenseifner(c, make([]byte, 6), sumOp); err == nil {
			return fmt.Errorf("indivisible buffer accepted")
		}
		if err := rabenseifner(c, make([]byte, 8), nil); err == nil {
			return fmt.Errorf("nil op accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterAllgatherSchedule(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 64} {
		s, err := sched.ReduceScatterAllgather(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		logp := bits.Len(uint(p)) - 1
		if got := len(s.Stages); got != 2*logp {
			t.Errorf("p=%d: %d stages, want %d", p, got, 2*logp)
		}
		// The allgather half (the last log2 p stages) must on its own
		// deliver every chunk everywhere from the owns-one-chunk state.
		ag := &sched.Schedule{Name: "rab-allgather-half", P: p, Stages: s.Stages[logp:]}
		if err := ag.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: allgather half: %v", p, err)
		}
		// Volume: both halves move p-1 chunks per rank in total.
		if got, want := s.TotalBlocksMoved(), int64(2*p*(p-1)); got != want {
			t.Errorf("p=%d: moved %d chunk-messages, want %d", p, got, want)
		}
	}
	if _, err := sched.ReduceScatterAllgather(6); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestRabenseifnerScheduleMatchesRuntimeTraffic(t *testing.T) {
	const p, elems = 8, 16 // chunk = 2 elems = 16 bytes
	s, err := sched.ReduceScatterAllgather(p)
	if err != nil {
		t.Fatal(err)
	}
	stats := mpi.NewStats()
	err = mpi.Run(p, func(c *mpi.Comm) error {
		buf := make([]byte, elems*8)
		for j := 0; j < elems; j++ {
			putU64(buf[j*8:], uint64(c.Rank()+j))
		}
		return rabenseifner(c, buf, sumOp)
	}, mpi.WithStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	requireTraffic(t, s, elems*8/p, stats)
}
