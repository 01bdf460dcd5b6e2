package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The harness reads it to shape the
// contract output and to judge -compare.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// shape keeps exactly the metrics BENCHMARK.json declares for this kind of
// run, in its units; a declared metric the run did not produce is an error.
func (spec *benchSpec) shape(res *result, traced bool) (map[string]metric, error) {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("run produced no %q (declared in BENCHMARK.json)", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("%q measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	return out, nil
}

// resultSet is what a full run writes with -out and what -compare reads.
type resultSet struct {
	Header setHeader   `json:"header"`
	Runs   []runRecord `json:"runs"`
}

type setHeader struct {
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"GOMAXPROCS"`
	Go         string         `json:"go"`
	Kernel     string         `json:"kernel"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Load1      float64        `json:"load1_at_start"`
	Ops        map[string]int `json:"ops"` // per workload: ops attempted in one untraced run
}

type runRecord struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newHeader(root string, seed int64, seconds float64) setHeader {
	h := setHeader{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds, Ops: map[string]int{},
	}
	if body, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(body))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.Load1, _ = loadAvg1()
	return h
}

// fullMain runs all five workloads untraced (each in a fresh process), then
// the traced pass, prints both tables and optionally writes the result set.
// It refuses to report if any op failed.
func fullMain(seed int64, seconds float64, runs int, out string) int {
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	warnLoad()
	set := resultSet{Header: newHeader(root, seed, seconds)}
	failed := 0
	for _, w := range workloadNames {
		for r := 0; r < runs; r++ {
			line, err := runChild(w, seed, seconds, 0, childRun)
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", w, err))
			}
			failed += line.Failed
			set.Header.Ops[w] = line.Attempted
			set.Runs = append(set.Runs, runRecord{Workload: w, Attempted: line.Attempted, Failed: line.Failed, Metrics: line.Metrics})
		}
	}
	for _, w := range workloadNames {
		line, err := runChild(w, seed, seconds, 1, childOwnLayers)
		if err != nil {
			return fatal(fmt.Errorf("traced pass of %s: %w", w, err))
		}
		failed += line.Failed
		set.Runs = append(set.Runs, runRecord{Workload: w, Traced: true, Attempted: line.Attempted, Failed: line.Failed, Metrics: line.Metrics})
	}
	if failed > 0 {
		return fatal(fmt.Errorf("%d failed operations or violated checks: refusing to report (see the lines above)", failed))
	}
	printSet(os.Stdout, spec, &set)
	if out != "" {
		body, err := json.MarshalIndent(&set, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(body, '\n'), 0o644)
		}
		if err != nil {
			return fatal(err)
		}
	}
	return 0
}

// values collects one metric's readings over a workload's runs.
func (set *resultSet) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload == workload && r.Traced == traced {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func printSet(w io.Writer, spec *benchSpec, set *resultSet) {
	h := set.Header
	fmt.Fprintf(w, "bench: seed %d, %.0f s runs, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %.12s, load1 %.2f\n\n",
		h.Seed, h.Seconds, h.Nproc, h.GOMAXPROCS, h.Go, h.Kernel, h.Commit, h.Load1)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "END TO END (untraced)\tunit\t"+strings.Join(workloadNames, "\t"))
	for _, m := range spec.EndToEnd {
		row := []string{m.Name, m.Unit}
		for _, wl := range workloadNames {
			row = append(row, fmt.Sprintf("%.4g", median(set.values(wl, m.Name, false))))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	row := []string{"samples (ops)", "count"}
	for _, wl := range workloadNames {
		row = append(row, fmt.Sprint(h.Ops[wl]))
	}
	fmt.Fprintln(tw, strings.Join(row, "\t"))
	tw.Flush()

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PER LAYER (traced pass)\tunit\tvalue\tmeasured on")
	for _, m := range spec.PerLayer {
		var cells, homes []string
		for _, wl := range workloadNames {
			if v := set.values(wl, m.Name, true); len(v) > 0 {
				cells = append(cells, fmt.Sprintf("%.4g", median(v)))
				homes = append(homes, wl)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", m.Name, m.Unit, strings.Join(cells, " / "), strings.Join(homes, " / "))
	}
	tw.Flush()
}

// exactMetrics must repeat exactly between two run sets of the same seed:
// they are counts and model outputs, not timings.
var exactMetrics = map[string]bool{
	"mpi.msgs_per_op": true, "mpi.bytes_per_op": true, "service.computes_per_op": true,
	"model.gain_pct.mapd": true, "model.gain_pct.plan": true,
}

// compareMain judges result set b against a with the bounds of
// BENCHMARK.json: one row per (workload, end-to-end metric) and one per
// exact count metric. It exits non-zero on any regressed row.
func compareMain(args []string) int {
	if len(args) != 2 {
		return fatal(fmt.Errorf("usage: -compare a.json b.json"))
	}
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	var a, b resultSet
	for i, set := range []*resultSet{&a, &b} {
		body, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(body, set)
		}
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", args[i], err))
		}
	}
	rows, regressed := compareSets(spec, &a, &b)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (median)\tb (median)\tworse by\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.2f%%\t%s\t%s\n", r.workload, r.metric, r.a, r.b, 100*r.worse, r.bound, r.verdict)
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d regressed rows\n", regressed)
		return 1
	}
	return 0
}

type compareRow struct {
	workload, metric string
	a, b, worse      float64 // worse: share of a's median by which b is worse (negative: better)
	bound, verdict   string
}

// compareSets applies each metric's bound per (workload, metric). A row is
// "unresolved" when either side's own run-to-run spread (quartile distance
// over median) exceeds the bound, unless every run of b beats every run of a.
func compareSets(spec *benchSpec, a, b *resultSet) (rows []compareRow, regressed int) {
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl, m.Name, false), b.values(wl, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := compareRow{workload: wl, metric: m.Name, a: median(va), b: median(vb), bound: fmt.Sprintf("%.0f%%", 100*m.Bound)}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			row.worse = sign * ratio(row.b-row.a, row.a)
			switch {
			case allBetter(va, vb, sign):
				row.verdict = "ok"
			case quartileSpread(va) > m.Bound || quartileSpread(vb) > m.Bound:
				row.verdict = "unresolved"
			case row.worse > m.Bound:
				row.verdict = "regressed"
				regressed++
			default:
				row.verdict = "ok"
			}
			rows = append(rows, row)
		}
	}
	var names []string
	for name := range exactMetrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, wl := range workloadNames {
			va, vb := a.values(wl, name, true), b.values(wl, name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := compareRow{workload: wl, metric: name, a: median(va), b: median(vb), bound: "exact"}
			row.worse = ratio(row.b-row.a, row.a)
			switch {
			case a.Header.Seed != b.Header.Seed || a.Header.Seconds != b.Header.Seconds:
				row.verdict = "unresolved" // different inputs: counts need not repeat
			case row.a != row.b:
				row.verdict = "regressed"
				regressed++
			default:
				row.verdict = "ok"
			}
			rows = append(rows, row)
		}
	}
	return rows, regressed
}

// allBetter reports whether every reading of b is strictly better than
// every reading of a (sign +1: lower is better).
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
