package app

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/collective"
	"repro/internal/mpi"
)

// SolverConfig describes the second synthetic workload: a conjugate-
// gradient-style iterative solver that performs two global dot products
// (allreduce) per iteration over small vectors — the latency-bound
// collective profile that motivates the paper's future-work extension to
// MPI_Allreduce.
type SolverConfig struct {
	Procs          int
	Iterations     int
	DotElems       int // float64 elements per allreduce (small: latency-bound)
	ComputePerIter time.Duration
	Hierarchical   bool                    // use the hierarchical allreduce path
	NodeOf         func(worldRank int) int // required when Hierarchical
}

// Validate rejects non-runnable configurations.
func (c *SolverConfig) Validate() error {
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("app: solver needs positive process count")
	case c.Iterations <= 0:
		return fmt.Errorf("app: solver needs positive iteration count")
	case c.DotElems <= 0:
		return fmt.Errorf("app: solver needs positive dot-product width")
	case c.ComputePerIter < 0:
		return fmt.Errorf("app: negative compute per iteration")
	case c.Hierarchical && c.NodeOf == nil:
		return fmt.Errorf("app: hierarchical solver needs a NodeOf grouping")
	}
	return nil
}

// SolverResult reports a solver run.
type SolverResult struct {
	Elapsed  time.Duration
	Residual float64 // final pseudo-residual, to keep the reductions observable
}

// sumFloats adds float64 vectors encoded little-endian.
func sumFloats(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
	}
}

// RunSolver executes the solver on the goroutine runtime and returns rank
// 0's timing and final residual. Each iteration performs a busy-work
// "sparse matrix-vector product" followed by two allreduce dot products, as
// a CG loop would.
func RunSolver(cfg SolverConfig) (SolverResult, error) {
	if err := cfg.Validate(); err != nil {
		return SolverResult{}, err
	}
	var res SolverResult
	err := mpi.Run(cfg.Procs, func(c *mpi.Comm) error {
		buf := make([]byte, cfg.DotElems*8)
		local := float64(c.Rank()+1) / float64(cfg.Procs)
		start := time.Now()
		residual := 1.0
		sink := local
		for it := 0; it < cfg.Iterations; it++ {
			// "Compute": local busy work proportional to ComputePerIter.
			// The result feeds a sink, never the reductions, so the solver
			// stays numerically deterministic regardless of timing.
			deadline := time.Now().Add(cfg.ComputePerIter)
			for time.Now().Before(deadline) {
				sink = sink*0.999 + 0.001
			}
			// Two dot products per iteration.
			for dot := 0; dot < 2; dot++ {
				for j := 0; j < cfg.DotElems; j++ {
					binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(local*residual/float64(j+1)))
				}
				var err error
				if cfg.Hierarchical {
					err = collective.HierarchicalAllreduce(c, buf, sumFloats, cfg.NodeOf)
				} else {
					err = collective.Allreduce(c, buf, sumFloats)
				}
				if err != nil {
					return err
				}
				residual = math.Float64frombits(binary.LittleEndian.Uint64(buf)) / float64(cfg.Procs)
			}
		}
		if c.Rank() == 0 {
			res.Elapsed = time.Since(start)
			res.Residual = residual
		}
		return nil
	})
	return res, err
}
