// Command reproduce regenerates the evaluation of "Topology-Aware Rank
// Reordering for MPI Collectives" (Mirsadeghi & Afsahi, IPDPS Workshops
// 2016): Fig. 3 (non-hierarchical micro-benchmarks), Fig. 4 (hierarchical
// micro-benchmarks), Figs. 5-6 (application study) and Fig. 7 (overheads),
// printed as text tables with the same rows and series the paper plots.
//
// Usage:
//
//	reproduce [-fig 3|4|5|6|7|all] [-p 4096] [-quick]
//	reproduce -calibrate
//
// -quick runs a reduced size sweep and 256 processes, finishing in seconds;
// the default regenerates the full 4096-process evaluation (minutes).
// -calibrate skips the figures and instead runs laptop-scale allgathers on
// the real goroutine runtime, printing the cost model's predicted-vs-measured
// skew table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/app"
	"repro/internal/collective"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/osu"
	"repro/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, 5, 6, 7 or all")
	procs := flag.Int("p", 4096, "micro-benchmark process count")
	quick := flag.Bool("quick", false, "reduced scale for a fast smoke run")
	csvOut := flag.Bool("csv", false, "emit CSV instead of text tables")
	tracePath := flag.String("trace", "", "also run a laptop-scale allgather on the real runtime and write its Chrome trace to this file")
	calibrate := flag.Bool("calibrate", false, "skip the figures: run laptop-scale allgathers on the real runtime with a cost-model calibrator attached and print the predicted-vs-measured skew table")
	metricsOut := flag.String("metrics-out", "", "write a JSON snapshot of the metrics registry to this file at exit")
	flag.Parse()

	if *calibrate {
		if err := runCalibrate(os.Stdout, *procs); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
	} else if err := run(os.Stdout, *fig, *procs, *quick, *csvOut, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		if err := metrics.WriteJSONFile(*metricsOut, metrics.Default); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
	}
}

func run(w io.Writer, fig string, procs int, quick, csvOut bool, tracePath string) error {
	sizes := osu.DefaultSizes()
	appCfg := app.DefaultConfig()
	if quick {
		procs = 256
		sizes = osu.Sizes(64, 65536)
		appCfg.Procs = 256
		appCfg.Steps = 50
	}
	setup, err := experiments.NewSetup(procs, sizes)
	if err != nil {
		return err
	}

	// The sensitivity table is opt-in (-fig sens); "all" covers the paper's
	// own figures.
	want := func(f string) bool {
		if f == "sens" {
			return fig == "sens"
		}
		return fig == "all" || fig == f
	}

	if want("sens") {
		p := procs
		if p > 512 {
			p = 512
		}
		rows, err := experiments.Sensitivity(p, []float64{0.5, 2.0})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderSensitivity(rows))
	}

	if want("3") {
		panels, err := experiments.Fig3(setup)
		if err != nil {
			return err
		}
		var rp []experiments.RenderPanel
		for _, p := range panels {
			rp = append(rp, experiments.RenderPanel{Title: p.Layout.String(), Series: p.Series})
		}
		if csvOut {
			if err := experiments.PanelsCSV(w, rp); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(w, experiments.RenderPanels(
				fmt.Sprintf("Figure 3: non-hierarchical topology-aware allgather, %d processes", procs), rp))
		}
	}
	if want("4") {
		panels, err := experiments.Fig4(setup)
		if err != nil {
			return err
		}
		var rp []experiments.RenderPanel
		for _, p := range panels {
			rp = append(rp, experiments.RenderPanel{
				Title:  fmt.Sprintf("%v, %v", p.Layout, p.Intra),
				Series: p.Series,
			})
		}
		if csvOut {
			if err := experiments.PanelsCSV(w, rp); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(w, experiments.RenderPanels(
				fmt.Sprintf("Figure 4: hierarchical topology-aware allgather, %d processes", procs), rp))
		}
	}
	if want("5") {
		panels, err := experiments.Fig5(setup, appCfg)
		if err != nil {
			return err
		}
		var rp []struct {
			Title   string
			Results []experiments.AppResult
		}
		for _, p := range panels {
			rp = append(rp, struct {
				Title   string
				Results []experiments.AppResult
			}{p.Layout.String(), p.Results})
		}
		if csvOut {
			if err := experiments.AppCSV(w, rp); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(w, experiments.RenderApp(
				fmt.Sprintf("Figure 5: application, non-hierarchical, %d processes, %d allgather calls",
					appCfg.Procs, appCfg.Steps), rp))
		}
	}
	if want("6") {
		panels, err := experiments.Fig6(setup, appCfg)
		if err != nil {
			return err
		}
		var rp []struct {
			Title   string
			Results []experiments.AppResult
		}
		for _, p := range panels {
			rp = append(rp, struct {
				Title   string
				Results []experiments.AppResult
			}{fmt.Sprintf("%v, %v", p.Layout, p.Intra), p.Results})
		}
		if csvOut {
			if err := experiments.AppCSV(w, rp); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(w, experiments.RenderApp(
				fmt.Sprintf("Figure 6: application, hierarchical, %d processes", appCfg.Procs), rp))
		}
	}
	if want("7") || fig == "7a" || fig == "7b" {
		reps := 3
		if quick {
			reps = 1
		}
		rows, err := experiments.Fig7(setup, reps)
		if err != nil {
			return err
		}
		if csvOut {
			if err := experiments.OverheadsCSV(w, rows); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(w, experiments.RenderOverheads(rows))
		}
	}
	if tracePath != "" {
		if err := writeRuntimeTrace(w, tracePath, procs); err != nil {
			return err
		}
	}
	return nil
}

// runCalibrate executes laptop-scale allgathers for real with a cost-model
// calibrator joined against the same simnet machine that prices the figures,
// and prints the predicted-vs-measured skew table. One size below and one
// above the ring switch point exercises both algorithm families AlgAuto
// selects.
func runCalibrate(w io.Writer, procs int) error {
	p := procs
	if p > 64 {
		p = 64 // power of two, keeps the recursive doubling leg valid
	}
	return collective.Calibrate(w, collective.CalibrateConfig{
		P:     p,
		Sizes: []int{512, 65536},
		Alg:   collective.AlgAuto,
	})
}

// writeRuntimeTrace runs a laptop-scale flat + hierarchical-style allgather
// sequence on the real goroutine runtime with tracing enabled and exports
// the recording as Chrome trace-event JSON. The figures themselves are
// priced on the cost model; this demonstrates the observed side — every
// send, delivery and receive wait of the collectives the model prices.
func writeRuntimeTrace(w io.Writer, path string, procs int) error {
	p := procs
	if p > 64 {
		p = 64 // power of two, keeps the recursive doubling leg valid
	}
	rec := trace.NewRecorder()
	stats := mpi.NewStats()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := make([]byte, 1024)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		recv := make([]byte, c.Size()*len(send))
		if err := collective.Allgather(c, send, recv, collective.AlgRecursiveDoubling); err != nil {
			return err
		}
		return collective.Allgather(c, send, recv, collective.AlgRing)
	}, mpi.WithTracer(rec), mpi.WithStats(stats))
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTraceFile(path, rec); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d events from %d ranks (%d messages) written to %s\n",
		rec.Len(), rec.Ranks(), stats.TotalMessages(), path)
	return nil
}
