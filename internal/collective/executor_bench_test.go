package collective

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// BenchmarkScheduleExecutor measures the schedule pipeline's three costs:
// cold compile (pricing view + executable expansion), warm compile (a cache
// hit), and end-to-end execution on the goroutine runtime.
func BenchmarkScheduleExecutor(b *testing.B) {
	for _, p := range []int{64, 256, 1024} {
		s, err := sched.Ring(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("CompileCold/p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.ResetCompileCache()
				prog, err := sched.CompileCached(s)
				if err != nil {
					b.Fatal(err)
				}
				if err := prog.EnsureExecutable(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CompileWarm/p%d", p), func(b *testing.B) {
			sched.ResetCompileCache()
			if _, err := sched.CompileCached(s); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.CompileCached(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// SteadyState isolates the executor step loop from world construction:
	// a persistent world executes one allgather per iteration, so ns/op and
	// allocs/op reflect executeProgram's steady state. The step loop is
	// allocation-free (0 allocs/op): payload buffers cycle through the
	// mpi buffer pool and metric handles are cached per program name.
	for _, tc := range []struct {
		alg Algorithm
		p   int
	}{{AlgRing, 4}, {AlgRing, 16}, {AlgRecursiveDoubling, 16}} {
		prog, err := scheduleBuilt(sched.FamilyAllgather, tc.alg.String(), tc.p)
		if err != nil {
			b.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			b.Fatal(err)
		}
		const blk = 64
		send := make([][]byte, tc.p)
		recv := make([][]byte, tc.p)
		for r := 0; r < tc.p; r++ {
			send[r] = input(r, blk)
			recv[r] = make([]byte, tc.p*blk)
		}
		b.Run(fmt.Sprintf("SteadyState/%v/p%d", tc.alg, tc.p), func(b *testing.B) {
			w := startSteadyWorld(tc.p, func(c *mpi.Comm) error {
				return ExecuteAllgather(c, prog, send[c.Rank()], recv[c.Rank()], nil)
			})
			defer func() {
				if err := w.close(); err != nil {
					b.Fatal(err)
				}
			}()
			for i := 0; i < 8; i++ {
				if err := w.round(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	execCases := []struct {
		alg Algorithm
		p   int
	}{
		{AlgRecursiveDoubling, 64},
		{AlgRecursiveDoubling, 256},
		{AlgRecursiveDoubling, 1024},
		{AlgRing, 64},
		{AlgRing, 256},
	}
	const blk = 64
	for _, tc := range execCases {
		prog, err := scheduleBuilt(sched.FamilyAllgather, tc.alg.String(), tc.p)
		if err != nil {
			b.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Execute/%v/p%d", tc.alg, tc.p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(tc.p, func(c *mpi.Comm) error {
					recv := make([]byte, tc.p*blk)
					return ExecuteAllgather(c, prog, input(c.Rank(), blk), recv, nil)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
