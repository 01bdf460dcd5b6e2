package collective

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// scheduleTraffic aggregates the per-pair byte volume a schedule predicts
// for the given per-block message size.
func scheduleTraffic(s *sched.Schedule, blk int) map[[2]int]int64 {
	out := map[[2]int]int64{}
	for _, st := range s.Stages {
		reps := st.Repeat
		if reps < 1 {
			reps = 1
		}
		for _, tr := range st.Transfers {
			out[[2]int{int(tr.Src), int(tr.Dst)}] += int64(reps) * int64(tr.N) * int64(blk)
		}
	}
	return out
}

// requireTraffic asserts that the runtime's per-pair byte volume equals the
// schedule's, pair by pair and in total.
func requireTraffic(t *testing.T, s *sched.Schedule, blk int, stats *mpi.Stats) {
	t.Helper()
	want, got := scheduleTraffic(s, blk), stats.PairBytes()
	for pair, bytes := range want {
		if got[pair] != bytes {
			t.Errorf("pair %v: schedule predicts %d bytes, runtime sent %d", pair, bytes, got[pair])
		}
	}
	for pair, bytes := range got {
		if want[pair] == 0 && bytes != 0 {
			t.Errorf("pair %v: runtime sent %d bytes the schedule does not predict", pair, bytes)
		}
	}
	if stats.TotalBytes() != s.TotalBlocksMoved()*int64(blk) {
		t.Errorf("total: schedule %d bytes, runtime %d", s.TotalBlocksMoved()*int64(blk), stats.TotalBytes())
	}
}

// TestScheduleMatchesRuntimeTraffic pins the front doors to the schedules the
// cost model prices: the point-to-point traffic a front-door call generates
// must equal the schedule's transfers, pair by pair and byte for byte.
func TestScheduleMatchesRuntimeTraffic(t *testing.T) {
	const blk = 64
	cases := []struct {
		name  string
		p     int
		build func(p int) (*sched.Schedule, error)
		alg   Algorithm
	}{
		{"recursive-doubling", 16, sched.RecursiveDoubling, AlgRecursiveDoubling},
		{"ring", 12, sched.Ring, AlgRing},
		{"bruck", 11, sched.Bruck, AlgBruck},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			stats := mpi.NewStats()
			err = mpi.Run(tc.p, func(c *mpi.Comm) error {
				return Allgather(c, input(c.Rank(), blk), make([]byte, tc.p*blk), tc.alg)
			}, mpi.WithStats(stats))
			if err != nil {
				t.Fatal(err)
			}
			requireTraffic(t, s, blk, stats)
		})
	}
}

// TestScheduleMatchesRuntimeTreeTraffic does the same for the rooted front
// doors (gather, broadcast, scatter), whose transfer sizes vary by stage.
func TestScheduleMatchesRuntimeTreeTraffic(t *testing.T) {
	const blk = 32
	const p = 13
	rootOnly := func(c *mpi.Comm, n int) []byte {
		if c.Rank() == 0 {
			return make([]byte, n)
		}
		return nil
	}
	cases := []struct {
		name  string
		build func() (*sched.Schedule, error)
		run   func(c *mpi.Comm) error
	}{
		{"binomial-gather", func() (*sched.Schedule, error) { return sched.BinomialGather(p) },
			func(c *mpi.Comm) error { return Gather(c, 0, input(c.Rank(), blk), rootOnly(c, p*blk)) }},
		{"binomial-scatter", func() (*sched.Schedule, error) { return sched.BinomialScatter(p) },
			func(c *mpi.Comm) error { return Scatter(c, 0, rootOnly(c, p*blk), make([]byte, blk)) }},
		{"binomial-broadcast", func() (*sched.Schedule, error) { return sched.BinomialBroadcast(p, 1) },
			func(c *mpi.Comm) error { return Broadcast(c, 0, make([]byte, blk)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			stats := mpi.NewStats()
			if err := mpi.Run(p, tc.run, mpi.WithStats(stats)); err != nil {
				t.Fatal(err)
			}
			requireTraffic(t, s, blk, stats)
		})
	}
}

func TestStatsAccessors(t *testing.T) {
	stats := mpi.NewStats()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 10))
		}
		_, err := c.Recv(0, 0)
		return err
	}, mpi.WithStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages(0, 1) != 1 || stats.Bytes(0, 1) != 10 {
		t.Errorf("stats(0->1) = %d msgs, %d bytes", stats.Messages(0, 1), stats.Bytes(0, 1))
	}
	if stats.Messages(1, 0) != 0 {
		t.Error("phantom reverse traffic")
	}
	if stats.TotalMessages() != 1 || stats.TotalBytes() != 10 {
		t.Error("totals wrong")
	}
}
