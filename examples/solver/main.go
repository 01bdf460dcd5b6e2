// Solver: the MPI_Allreduce extension end to end. A conjugate-gradient-style
// solver issues two allreduce dot products per iteration; this example runs
// it for real on the goroutine runtime (flat vs hierarchical allreduce) and
// then prices the reordering effect of the Rabenseifner large-message
// allreduce on the paper's 4096-core model.
//
// Run with: go run ./examples/solver
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/osu"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func main() {
	// Part 1: real execution at laptop scale.
	base := app.SolverConfig{
		Procs:          16,
		Iterations:     20,
		DotElems:       8,
		ComputePerIter: time.Millisecond,
	}
	flat, err := app.RunSolver(base)
	if err != nil {
		log.Fatal(err)
	}
	hier := base
	hier.Hierarchical = true
	hier.NodeOf = func(w int) int { return w / 4 }
	hierRes, err := app.RunSolver(hier)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG-style solver, %d ranks x %d iterations (2 allreduce/iter):\n", base.Procs, base.Iterations)
	fmt.Printf("  flat allreduce:         %8v  (residual %.6e)\n", flat.Elapsed.Round(time.Millisecond), flat.Residual)
	fmt.Printf("  hierarchical allreduce: %8v  (residual %.6e)\n", hierRes.Elapsed.Round(time.Millisecond), hierRes.Residual)

	// Part 2: the large-message allreduce (Rabenseifner) on the GPC model.
	cluster := repro.GPC()
	machine, err := simnet.NewMachine(cluster, simnet.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	const p = 4096
	s, err := sched.ReduceScatterAllgather(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRabenseifner allreduce on the GPC model (%d ranks):\n", p)
	fmt.Printf("%-16s %12s %12s %10s\n", "layout", "default", "RDMH", "gain")
	for _, kind := range []topology.LayoutKind{topology.BlockBunch, topology.CyclicBunch} {
		layout := topology.MustLayout(cluster, p, kind)
		d, err := topology.NewDistances(cluster, layout)
		if err != nil {
			log.Fatal(err)
		}
		m, err := core.RDMH(d, nil)
		if err != nil {
			log.Fatal(err)
		}
		const chunkBytes = 1024 // a 4 MiB vector
		def, err := machine.Price(s, layout, chunkBytes)
		if err != nil {
			log.Fatal(err)
		}
		// Every rank holds a whole vector, so the sum needs no order fix.
		prof, err := machine.ProfileReordered(context.Background(), s, layout, m, sched.NoOrderFix)
		if err != nil {
			log.Fatal(err)
		}
		re, err := prof.Price(chunkBytes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16v %10.3fms %10.3fms %9.1f%%\n", kind, def*1e3, re*1e3, osu.Improvement(def, re))
	}
}
