// Command allgather runs one topology-aware allgather configuration and
// reports default vs reordered latency under the cost model — and optionally
// executes the collective for real on the goroutine MPI runtime.
//
// Usage:
//
//	allgather -p 4096 -layout cyclic-bunch -size 65536
//	allgather -p 64 -layout cyclic-scatter -size 1024 -real
//	allgather -p 64 -size 1024 -real -trace allgather.trace.json
//	allgather -p 64 -size 65536 -calibrate
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/osu"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	p := flag.Int("p", 4096, "process count")
	layoutName := flag.String("layout", "block-bunch", "initial layout (block-bunch, block-scatter, cyclic-bunch, cyclic-scatter)")
	size := flag.Int("size", 1024, "per-process message bytes")
	alg := flag.String("alg", "auto", "algorithm: auto, rd, ring, bruck, neighbor")
	withScotch := flag.Bool("scotch", false, "also evaluate the Scotch baseline mapping")
	real := flag.Bool("real", false, "also execute the collective on the goroutine runtime (small p only)")
	tracePath := flag.String("trace", "", "write a Chrome trace of the -real execution to this file (load in chrome://tracing or Perfetto)")
	calibrate := flag.Bool("calibrate", false, "execute on the goroutine runtime with a cost-model calibrator attached and print the predicted-vs-measured skew table (small p only)")
	rounds := flag.Int("rounds", 5, "allgather calls per size in -calibrate mode")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry to this file at exit, in the Prometheus text format /metrics serves")
	flag.Parse()

	if *calibrate {
		if err := runCalibrate(os.Stdout, *p, *layoutName, *size, *alg, *rounds); err != nil {
			fmt.Fprintln(os.Stderr, "allgather:", err)
			os.Exit(1)
		}
	} else if err := run(os.Stdout, *p, *layoutName, *size, *alg, *withScotch, *real, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "allgather:", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		if err := metrics.WritePrometheusFile(*metricsOut, metrics.Default); err != nil {
			fmt.Fprintln(os.Stderr, "allgather:", err)
			os.Exit(1)
		}
	}
}

func run(w io.Writer, p int, layoutName string, size int, algName string, withScotch, real bool, tracePath string) error {
	if tracePath != "" && !real {
		return fmt.Errorf("-trace records the runtime execution and requires -real")
	}
	kind, err := lookupLayout(layoutName)
	if err != nil {
		return err
	}

	cluster := topology.GPC()
	machine, err := simnet.NewMachine(cluster, simnet.DefaultParams())
	if err != nil {
		return err
	}
	layout, err := topology.Layout(cluster, p, kind)
	if err != nil {
		return err
	}
	d, err := topology.NewDistances(cluster, layout)
	if err != nil {
		return err
	}

	schedule, heuristic, patName, err := resolveAlgorithm(algName, p, size)
	if err != nil {
		return err
	}
	def, err := machine.Price(schedule, layout, size)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "allgather: p=%d layout=%v size=%dB algorithm=%s\n", p, kind, size, patName)
	fmt.Fprintf(w, "  default mapping:   %10.3f ms\n", def*1e3)

	evaluate := func(name string, m core.Mapping) error {
		prof, err := machine.ProfileReordered(context.Background(), schedule, layout, m, sched.InitComm)
		if err != nil {
			return err
		}
		re, err := prof.Price(size)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-18s %10.3f ms  (%+.1f%%)\n", name+":", re*1e3, osu.Improvement(def, re))
		return nil
	}

	hm, err := heuristic(d, nil)
	if err != nil {
		return err
	}
	if err := evaluate("heuristic (Hrstc)", hm); err != nil {
		return err
	}
	if withScotch {
		pat, ok := scotchPattern(patName)
		if !ok {
			return fmt.Errorf("no Scotch pattern graph for algorithm %q", patName)
		}
		g, err := patterns.Build(pat, p)
		if err != nil {
			return err
		}
		sm, err := scotch.Map(g, d, nil)
		if err != nil {
			return err
		}
		if err := evaluate("Scotch baseline", sm); err != nil {
			return err
		}
	}

	if real {
		if p > 1024 {
			return fmt.Errorf("-real is intended for small process counts (got %d)", p)
		}
		var rec *trace.Recorder
		var opts []mpi.Option
		if tracePath != "" {
			rec = trace.NewRecorder()
			opts = append(opts, mpi.WithTracer(rec))
		}
		res, err := osu.MeasureRuntime(p, size, collective.AlgAuto, 2, 5, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  real goroutine runtime (default order): %v per call\n", res.Latency)
		if rec != nil {
			if err := trace.WriteChromeTraceFile(tracePath, rec); err != nil {
				return err
			}
			fmt.Fprintf(w, "  trace: %d events from %d ranks written to %s\n", rec.Len(), rec.Ranks(), tracePath)
		}
	}
	return nil
}

// lookupLayout resolves a -layout value to its LayoutKind.
func lookupLayout(name string) (topology.LayoutKind, error) {
	for _, k := range topology.AllLayouts {
		if k.String() == name {
			return k, nil
		}
	}
	return topology.LayoutKind{}, fmt.Errorf("unknown layout %q", name)
}

// runCalibrate executes the collective for real with a calibrator joined
// against the cost model and prints the predicted-vs-measured skew table.
func runCalibrate(w io.Writer, p int, layoutName string, size int, algName string, rounds int) error {
	if p > 1024 {
		return fmt.Errorf("-calibrate spawns a real goroutine world and is intended for small process counts (got %d)", p)
	}
	kind, err := lookupLayout(layoutName)
	if err != nil {
		return err
	}
	alg, err := collective.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	return collective.Calibrate(w, collective.CalibrateConfig{
		P:      p,
		Sizes:  []int{size},
		Rounds: rounds,
		Alg:    alg,
		Layout: kind,
	})
}

// resolveAlgorithm maps an -alg value to its schedule, fine-tuned heuristic
// and display name. "auto" follows the MVAPICH-style size selection.
func resolveAlgorithm(name string, p, size int) (*sched.Schedule, core.Heuristic, string, error) {
	if name == "auto" {
		if size <= collective.RingThresholdBytes && p&(p-1) == 0 {
			name = "rd"
		} else {
			name = "ring"
		}
	}
	switch name {
	case "rd", "recursive-doubling":
		s, err := sched.RecursiveDoubling(p)
		return s, core.RDMH, "recursive-doubling", err
	case "ring":
		s, err := sched.Ring(p)
		return s, core.RMH, "ring", err
	case "bruck":
		s, err := sched.Bruck(p)
		return s, core.BKMH, "bruck", err
	case "neighbor", "neighbor-exchange":
		s, err := sched.NeighborExchange(p)
		return s, core.RMH, "neighbor-exchange", err
	default:
		return nil, nil, "", fmt.Errorf("unknown algorithm %q", name)
	}
}

// scotchPattern returns the pattern-graph kind for a displayed algorithm
// name (the general mapper has no graphs for the extension algorithms).
func scotchPattern(name string) (core.Pattern, bool) {
	switch name {
	case "recursive-doubling":
		return core.RecursiveDoubling, true
	case "ring":
		return core.Ring, true
	default:
		return 0, false
	}
}
