// Command bench is the repository benchmark (ISSUE 11, BENCHMARK.json): five
// workloads across mapd, the collective runtime and the paper-scale planner,
// with end-to-end metrics from an untraced run and per-layer metrics from a
// separate traced run. See README.md in this directory.
//
//	bash bench/run.sh --workload mapd-cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 -out result.json        # all five + layer table
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// contractLine is the one JSON object a contract run prints last.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames))
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same op sequence")
		seconds  = flag.Float64("seconds", 15, "run length the fixed op sequence is sized for")
		trace    = flag.Int("trace", 0, "1: traced pass, reports the per-layer metrics instead")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out      = flag.String("out", "", "full run: write the result set here")
		runs     = flag.Int("runs", 1, "full run: untraced runs per workload")
	)
	flag.Parse()

	// Children must die on every exit path, signals included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()

	code := 0
	switch {
	case *compare:
		code = compareMain(flag.Args())
	case *workload != "":
		code = contractMain(*workload, *seed, *seconds, *trace == 1)
	default:
		code = fullMain(*seed, *seconds, *runs, *out)
	}
	stopAllChildren()
	os.Exit(code)
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// contractMain is one driver run: `--workload W --seed n --seconds s
// --trace 0|1`. The last stdout line is the result object.
func contractMain(workload string, seed int64, seconds float64, trace bool) int {
	// A traced child reports its own workload's layers; its parent merges
	// the five into the whole per-layer table.
	only := os.Getenv(childEnv) == childOwnLayers
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	warnLoad()
	if workload == wMapdLaunch && (!trace || only) { // the traced parent only starts children
		if err := pinToOneCPU(); err != nil {
			return fatal(err)
		}
	}
	// The contract allows a run 180 s; one that overruns is stopped here,
	// children included, without a result.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s; giving up")
		stopAllChildren()
		os.Exit(3)
	})
	var res *result
	switch {
	case !trace:
		res, err = runWorkload(&runConfig{workload: workload, seed: seed, seconds: seconds, setups: 3, root: root})
	case only:
		res, err = runTraced(root, workload, seed, seconds)
	default:
		res, err = runTracedAll(root, workload, seed, seconds)
	}
	if err != nil {
		return fatal(err)
	}
	for _, c := range res.Checks {
		fmt.Fprintln(os.Stderr, "bench: check:", c)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	metrics := res.Metrics
	if !only { // exactly what BENCHMARK.json declares for this kind of run
		spec, err := loadSpec(root)
		if err == nil {
			metrics, err = spec.shape(res, trace)
		}
		if err != nil {
			return fatal(err)
		}
	}
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return fatal(err)
	}
	if res.Failed > 0 {
		return 2 // a benchmark whose outputs are wrong reports nothing usable
	}
	return 0
}

// runWorkload dispatches one workload run in this process.
func runWorkload(cfg *runConfig) (*result, error) {
	if cfg.trace && cfg.rec == nil {
		cfg.rec = newSpanRecorder()
	}
	switch cfg.workload {
	case wMapdCold:
		return runMapdCold(cfg)
	case wMapdLaunch:
		return runMapdLaunch(cfg)
	case wCollSteady:
		return runCollSteady(cfg)
	case wJobLaunch:
		return runJobLaunch(cfg)
	case wPlanSweep:
		return runPlanSweep(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// warnLoad prints the header warning when the host is already busy: the
// numbers of a run that competes for the two cores are not comparable.
func warnLoad() {
	if os.Getenv(childEnv) != "" {
		return // this benchmark's own earlier workloads raised it
	}
	if load, ok := loadAvg1(); ok && load > float64(runtime.NumCPU()) {
		fmt.Fprintf(os.Stderr, "bench: WARNING: 1-minute load average %.2f exceeds nproc %d; timings will be noisy\n",
			load, runtime.NumCPU())
	}
}

func loadAvg1() (float64, bool) {
	body, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	var load float64
	if _, err := fmt.Sscan(string(body), &load); err != nil {
		return 0, false
	}
	return load, true
}
