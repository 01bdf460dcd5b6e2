package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// tracedShare is the traced pass's op count relative to the untraced run.
const tracedShare = 0.2

// perWorkloadLayers are the layer metrics that describe the named workload
// itself rather than a layer with one home workload.
var perWorkloadLayers = []string{"proc.peak_rss_mb", "proc.mallocs_per_op", "proc.gc_pause_ms", "bench.trace_overhead_pct"}

// runTraced is one workload's traced pass in this process: a short untraced
// run and a traced run of the same (20%) length — their ops_per_s difference
// is the tracing overhead — then the spans are written out as Chrome trace
// JSON. No end-to-end number is taken from here.
func runTraced(root, workload string, seed int64, seconds float64) (*result, error) {
	short := seconds * tracedShare
	plain, err := runWorkload(&runConfig{workload: workload, seed: seed, seconds: short, setups: 1, root: root})
	if err != nil {
		return nil, err
	}
	cfg := &runConfig{workload: workload, seed: seed, seconds: short, setups: 1, root: root, trace: true}
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res.Failed += plain.Failed
	res.Errors = append(res.Errors, plain.Errors...)
	base, traced := plain.Metrics["ops_per_s"].Value, res.Metrics["ops_per_s"].Value
	res.set("bench.trace_overhead_pct", 100*ratio(base-traced, base), "%")
	for _, e2e := range []string{"ops_per_s", "op_p50_ms", "op_p99_ms", "alloc_kb_per_op", "setup_s"} {
		delete(res.Metrics, e2e)
	}
	path := filepath.Join(root, "bench", "out", "trace-"+workload+".json")
	if err := cfg.rec.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(cfg.rec.spans), path)
	return res, nil
}

// runTracedAll produces the whole per-layer table: every layer metric has
// one home workload, so all five traced passes run, each in a fresh process
// (compile cache, metrics.Default and buffer pools must not leak between
// workloads). The per-workload metrics come from the named workload.
func runTracedAll(root, workload string, seed int64, seconds float64) (*result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	merged := &result{Workload: workload}
	for _, w := range workloadNames {
		line, err := runChild(w, seed, seconds, 1, childOwnLayers)
		if err != nil {
			return nil, fmt.Errorf("traced pass of %s: %w", w, err)
		}
		merged.Attempted += line.Attempted
		merged.Failed += line.Failed
		for name, m := range line.Metrics {
			if isPerWorkload(name) && w != workload {
				continue
			}
			merged.set(name, m.Value, m.Unit)
		}
	}
	return merged, nil
}

func isPerWorkload(name string) bool {
	for _, n := range perWorkloadLayers {
		if n == name {
			return true
		}
	}
	return false
}

// childEnv marks a re-executed workload process: the parent already checked
// the load, and with childOwnLayers a traced child reports only the layer
// metrics of its own workload.
const (
	childEnv       = "BENCH_CHILD"
	childRun       = "run"
	childOwnLayers = "own-layers"
)

// runChild re-executes this binary for one workload and parses the result
// line it prints last. The child's diagnostics pass through to stderr.
func runChild(workload string, seed int64, seconds float64, trace int, mode string) (*contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	line, perr := lastResultLine(stdout.Bytes())
	if perr != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, perr
	}
	return line, nil // a failed run still carries its counts; the caller decides
}

func lastResultLine(stdout []byte) (*contractLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var line contractLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &line, nil
}
