package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// The TestExecutorMatchesLegacy* suites were the executor-vs-hand-written-loop
// equivalence checks of the Schedule-IR unification. The loops are gone; the
// suites keep their names (pinned by the test floor) and shapes, and now hold
// the executor to the closed-form expected buffer of each collective.

// runExpect runs executor on every rank of a p-rank world and demands that
// its output equal want(rank).
func runExpect(t *testing.T, p int, executor func(c *mpi.Comm, out []byte) error, want func(rank int) []byte) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		w := want(c.Rank())
		got := make([]byte, len(w))
		if err := executor(c, got); err != nil {
			return err
		}
		if !bytes.Equal(got, w) {
			return fmt.Errorf("rank %d: executor output differs from the closed form", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// u64s renders a little-endian uint64 vector.
func u64s(vals ...uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		putU64(out[i*8:], v)
	}
	return out
}

func TestExecutorMatchesLegacyAllgather(t *testing.T) {
	cases := []struct {
		alg Algorithm
		ps  []int
	}{
		{AlgRecursiveDoubling, []int{1, 2, 4, 8, 16}},
		{AlgRing, []int{1, 2, 3, 5, 8, 12}},
		{AlgBruck, []int{1, 2, 3, 5, 7, 11, 16}},
		{AlgNeighborExchange, []int{1, 2, 6, 10}},
	}
	for _, tc := range cases {
		for _, p := range tc.ps {
			for _, blk := range []int{1, 7, 64} {
				t.Run(fmt.Sprintf("%v/p%d/blk%d", tc.alg, p, blk), func(t *testing.T) {
					runExpect(t, p,
						func(c *mpi.Comm, out []byte) error {
							return Allgather(c, input(c.Rank(), blk), out, tc.alg)
						},
						func(int) []byte { return expected(p, blk) })
				})
			}
		}
	}
}

// TestExecutorMatchesLegacyPlaced pins the place-based in-algorithm order
// fix: under a placement the executor must deposit contributor j's block at
// offset place(j), for random rank reorderings.
func TestExecutorMatchesLegacyPlaced(t *testing.T) {
	const blk = 16
	rnd := rand.New(rand.NewSource(7))
	for _, alg := range []Algorithm{AlgRing, AlgNeighborExchange} {
		for _, p := range []int{2, 6, 12} {
			m := randomMapping(p, rnd)
			place := func(j int) int { return m[j] }
			t.Run(fmt.Sprintf("%v/p%d", alg, p), func(t *testing.T) {
				prog, err := scheduleBuilt(sched.FamilyAllgather, alg.String(), p)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]byte, p*blk)
				for j := 0; j < p; j++ {
					copy(want[place(j)*blk:], input(j, blk))
				}
				runExpect(t, p,
					func(c *mpi.Comm, out []byte) error {
						return ExecuteAllgather(c, prog, input(c.Rank(), blk), out, place)
					},
					func(int) []byte { return want })
			})
		}
	}
}

// TestExecutorMatchesLegacyReordered runs the full Reordered front door
// (which compiles and executes schedules) against the standard contract for
// every order-preservation mode.
func TestExecutorMatchesLegacyReordered(t *testing.T) {
	const blk = 8
	rnd := rand.New(rand.NewSource(11))
	for _, alg := range []Algorithm{AlgRing, AlgRecursiveDoubling, AlgBruck, AlgNeighborExchange} {
		for _, mode := range []sched.OrderMode{sched.InitComm, sched.EndShuffle} {
			p := 8
			m := randomMapping(p, rnd)
			t.Run(fmt.Sprintf("%v/%v", alg, mode), func(t *testing.T) {
				err := mpi.Run(p, func(c *mpi.Comm) error {
					r, err := NewReordered(c, m, mode)
					if err != nil {
						return err
					}
					recv := make([]byte, p*blk)
					if err := r.Allgather(input(c.Rank(), blk), recv, alg); err != nil {
						return err
					}
					if !bytes.Equal(recv, expected(p, blk)) {
						return fmt.Errorf("rank %d: reordered output violates the original-rank contract", c.Rank())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestExecutorMatchesLegacyAllreduce(t *testing.T) {
	const elems = 4
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			// Element i sums (rank + i) over all ranks.
			want := make([]uint64, elems)
			for i := range want {
				want[i] = uint64(p*(p-1)/2 + p*i)
			}
			runExpect(t, p,
				func(c *mpi.Comm, out []byte) error {
					for i := 0; i < elems; i++ {
						putU64(out[i*8:], uint64(c.Rank()+i))
					}
					return Allreduce(c, out, sumOp)
				},
				func(int) []byte { return u64s(want...) })
		})
	}
}

func TestExecutorMatchesLegacyRabenseifner(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		elems := 2 * p // blk is a multiple of the 8-byte element
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			s, err := sched.ReduceScatterAllgather(p)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := sched.CompileCached(s)
			if err != nil {
				t.Fatal(err)
			}
			// Element i sums (100·rank + i) over all ranks.
			want := make([]uint64, elems)
			for i := range want {
				want[i] = uint64(100*p*(p-1)/2 + p*i)
			}
			runExpect(t, p,
				func(c *mpi.Comm, out []byte) error {
					for i := 0; i < elems; i++ {
						putU64(out[i*8:], uint64(c.Rank()*100+i))
					}
					return ExecuteAllreduce(c, prog, out, sumOp)
				},
				func(int) []byte { return u64s(want...) })
		})
	}
}

// TestAllreduceSelection pins the size/shape selection table, by the metrics
// label the front door runs the selected program under.
func TestAllreduceSelection(t *testing.T) {
	cases := []struct {
		p, n int
		want string
	}{
		{8, RabenseifnerThresholdBytes, "rabenseifner"},
		{8, RabenseifnerThresholdBytes - 8, "allreduce"}, // below threshold
		{6, RabenseifnerThresholdBytes, "allreduce"},     // non power of two
		{8, RabenseifnerThresholdBytes + 4, "allreduce"}, // indivisible
		{1, RabenseifnerThresholdBytes, "allreduce"},     // single rank
	}
	for _, tc := range cases {
		if got := allreduceLabel(selected(t, tc.p, sched.FamilyAllreduce, tc.n, AlgAuto)); got != tc.want {
			t.Errorf("p=%d n=%d: selected %q, want %q", tc.p, tc.n, got, tc.want)
		}
	}
}

// TestAllreduceFrontDoorLargeBuffer routes a threshold-sized buffer through
// the front door, which must take the Rabenseifner schedule — observable on
// its executions counter — and deliver the closed-form sum.
func TestAllreduceFrontDoorLargeBuffer(t *testing.T) {
	const p = 8
	n := RabenseifnerThresholdBytes // divisible by 8 ranks and by 8-byte elems
	want := make([]uint64, n/8)
	for i := range want {
		want[i] = uint64(p*(p-1)/2 + p*i)
	}
	rsag0 := scheduleExecutions.With("algorithm", "reduce-scatter-allgather").Value()
	runExpect(t, p,
		func(c *mpi.Comm, out []byte) error {
			for i := 0; i < len(out)/8; i++ {
				putU64(out[i*8:], uint64(c.Rank()+i))
			}
			return Allreduce(c, out, sumOp)
		},
		func(int) []byte { return u64s(want...) })
	if got := scheduleExecutions.With("algorithm", "reduce-scatter-allgather").Value(); got != rsag0+p {
		t.Errorf("reduce-scatter-allgather executions advanced by %d, want %d", got-rsag0, p)
	}
}

func TestExecutorMatchesLegacyTrees(t *testing.T) {
	const blk = 24
	for _, p := range []int{1, 2, 5, 8, 13} {
		compiled := func(t *testing.T, f sched.FamilyID, builder string) *sched.Program {
			t.Helper()
			prog, err := scheduleBuilt(f, builder, p)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}
		rootOnly := func(c *mpi.Comm, b []byte) []byte {
			if c.Rank() == 0 {
				return b
			}
			return nil
		}
		t.Run(fmt.Sprintf("binomial-broadcast/p%d", p), func(t *testing.T) {
			prog := compiled(t, sched.FamilyBroadcast, "binomial-broadcast")
			runExpect(t, p,
				func(c *mpi.Comm, out []byte) error {
					if c.Rank() == 0 {
						copy(out, input(0, blk))
					}
					return ExecuteBroadcast(c, prog, out)
				},
				func(int) []byte { return input(0, blk) })
		})
		if p > 1 { // the block space is p chunks
			t.Run(fmt.Sprintf("scatter-allgather-broadcast/p%d", p), func(t *testing.T) {
				prog := compiled(t, sched.FamilyBroadcast, "scatter-allgather-broadcast")
				runExpect(t, p,
					func(c *mpi.Comm, out []byte) error {
						if c.Rank() == 0 {
							copy(out, expected(p, blk))
						}
						return ExecuteBroadcast(c, prog, out)
					},
					func(int) []byte { return expected(p, blk) })
			})
		}
		t.Run(fmt.Sprintf("binomial-scatter/p%d", p), func(t *testing.T) {
			prog := compiled(t, sched.FamilyScatter, "binomial-scatter")
			runExpect(t, p,
				func(c *mpi.Comm, out []byte) error {
					return ExecuteScatter(c, prog, rootOnly(c, expected(p, blk)), out)
				},
				func(rank int) []byte { return input(rank, blk) })
		})
		t.Run(fmt.Sprintf("binomial-gather/p%d", p), func(t *testing.T) {
			prog := compiled(t, sched.FamilyGather, "binomial-gather")
			runExpect(t, p,
				func(c *mpi.Comm, out []byte) error {
					return ExecuteGather(c, prog, 0, input(c.Rank(), blk), rootOnly(c, out))
				},
				func(rank int) []byte {
					if rank != 0 {
						return nil
					}
					return expected(p, blk)
				})
		})
	}
}

// TestScheduleHierarchicalAllgather pins that HierarchicalAllgather runs the
// compiled sched.Hierarchical composition on the executor: correct output,
// and one execution of the hierarchical-<intra>-<inter> program per rank.
func TestScheduleHierarchicalAllgather(t *testing.T) {
	const blk = 8
	nodeOf := func(worldRank int) int { return worldRank / 3 } // 4 nodes x 3 ranks
	p := 12
	for _, cfg := range []sched.HierarchicalConfig{
		{Intra: sched.Linear, Inter: sched.InterRing},
		{Intra: sched.NonLinear, Inter: sched.InterRing},
		{Intra: sched.Linear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling},
	} {
		t.Run(fmt.Sprintf("%v-%v", cfg.Intra, cfg.Inter), func(t *testing.T) {
			name := fmt.Sprintf("hierarchical-%v-%v", cfg.Intra, cfg.Inter)
			exec0 := scheduleExecutions.With("algorithm", name).Value()
			err := mpi.Run(p, func(c *mpi.Comm) error {
				recv := make([]byte, p*blk)
				if err := HierarchicalAllgather(c, input(c.Rank(), blk), recv, nodeOf, cfg); err != nil {
					return err
				}
				if !bytes.Equal(recv, expected(p, blk)) {
					return fmt.Errorf("rank %d: hierarchical schedule output wrong", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := scheduleExecutions.With("algorithm", name).Value(); got != exec0+uint64(p) {
				t.Errorf("schedule_executions_total{algorithm=%q} advanced by %d, want %d", name, got-exec0, p)
			}
		})
	}
}

// TestExecutorCacheReuse asserts the front door hits the compiled-schedule
// cache on repeated calls of one shape: after the cold call (whose ranks race
// to the empty cache and may each miss), every rank's selection is exactly
// one lookup and no compile.
func TestExecutorCacheReuse(t *testing.T) {
	sched.ResetCompileCache()
	const p, blk = 4, 16
	run := func() (hits, misses uint64) {
		h0, m0 := sched.CompileCacheCounters()
		err := mpi.Run(p, func(c *mpi.Comm) error {
			recv := make([]byte, p*blk)
			return Allgather(c, input(c.Rank(), blk), recv, AlgRing)
		})
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := sched.CompileCacheCounters()
		return h1 - h0, m1 - m0
	}
	if _, misses := run(); misses < 1 {
		t.Errorf("cold call compiled nothing: %d misses", misses)
	}
	for i := 0; i < 2; i++ {
		if hits, misses := run(); hits != p || misses != 0 {
			t.Errorf("warm call %d: %d hits, %d misses, want %d hits and no compile", i, hits, misses, p)
		}
	}
}

// TestExecutorErrors covers the executor wrappers' contract checks.
func TestExecutorErrors(t *testing.T) {
	ringProg, err := scheduleBuilt(sched.FamilyAllgather, AlgRing.String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rsag, err := sched.ReduceScatterAllgather(4)
	if err != nil {
		t.Fatal(err)
	}
	redProg, err := sched.CompileCached(rsag)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		// Program compiled for a different communicator size.
		if err := ExecuteAllgather(c, ringProg, make([]byte, 4), make([]byte, 8), nil); err == nil {
			return fmt.Errorf("size mismatch accepted")
		}
		// Reduction program through the allgather wrapper.
		if err := ExecuteAllgather(c, redProg, make([]byte, 4), make([]byte, 8), nil); err == nil {
			return fmt.Errorf("reduction program accepted as allgather")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Allreduce(nil, make([]byte, 8), nil); err == nil {
		t.Error("nil op accepted")
	}
}
