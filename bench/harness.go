package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// Workload names (normative, ISSUE 11).
const (
	wMapdCold   = "mapd-cold"
	wMapdLaunch = "mapd-launch"
	wCollSteady = "coll-steady"
	wJobLaunch  = "job-launch"
	wPlanSweep  = "plan-sweep"
)

var workloadNames = []string{wMapdCold, wMapdLaunch, wCollSteady, wJobLaunch, wPlanSweep}

// runConfig is what one workload run is asked to do.
type runConfig struct {
	workload string
	seed     int64
	// seconds sizes the fixed op sequence: every workload turns it into a
	// whole number of identical-composition rounds through a per-workload
	// constant calibrated on the seed commit, so a run measures for about
	// this long there and does exactly the same work on any other commit.
	seconds float64
	trace   bool
	// setups is how many times the full set-up runs; setup_s is the median.
	setups int
	root   string
	rec    *spanRecorder // traced pass only
}

// rounds converts the requested duration into a round count.
func (c *runConfig) rounds(secondsPerRound float64) int {
	n := int(math.Round(c.seconds / secondsPerRound))
	if n < 1 {
		n = 1
	}
	return n
}

// samples accumulates per-op outcomes of the measured phase.
type samples struct {
	latMs     []float64
	rounds    []int // index in latMs where each round starts
	busy      time.Duration
	attempted int
	failed    int
	errs      []string
}

func (s *samples) add(lat time.Duration, err error) {
	s.attempted++
	s.busy += lat
	s.latMs = append(s.latMs, ms(lat))
	if err != nil {
		s.fail(err)
	}
}

// nextRound marks the start of a round: a unit of fixed composition.
func (s *samples) nextRound() { s.rounds = append(s.rounds, len(s.latMs)) }

// fail counts a failed op whose latency was already added (or has none).
func (s *samples) fail(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run hands back.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Checks lists the workload's "bypassed" predictions with what was
	// observed — a violated one fails the run — and its sizing notes, which
	// never do.
	Checks []string `json:"checks,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a bypass prediction; a false one counts as a failed op so
// that the run is refused.
func (r *result) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !ok {
		msg = "VIOLATED: " + msg
		r.Failed++
		r.Errors = append(r.Errors, msg)
	}
	r.Checks = append(r.Checks, msg)
}

// note records how the mix is sized against a target that depends on
// timing or on a selection threshold inside the program. A later change may
// legitimately move it, so a miss is reported and never fails the run.
func (r *result) note(onTarget bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !onTarget {
		msg = "OFF TARGET: " + msg
	}
	r.Checks = append(r.Checks, msg)
}

// Group sizes, in ops. Throughput and the median are read off groups of at
// least minGroupOps; the 99th percentile needs ten samples beyond it, so its
// groups hold at least minTailGroupOps.
const (
	minGroupOps     = 100
	minTailGroupOps = 1000
)

// groups cuts the samples into runs of whole rounds with at least minOps
// ops each (the last group takes the remainder); a sequence shorter than two
// such groups is one group.
func (s *samples) groups(minOps int) [][]float64 {
	var out [][]float64
	start := 0
	for i := 1; i <= len(s.rounds); i++ {
		end := len(s.latMs)
		if i < len(s.rounds) {
			end = s.rounds[i]
		}
		if end-start >= minOps && len(s.latMs)-end >= minOps || i == len(s.rounds) {
			if end > start {
				out = append(out, s.latMs[start:end])
			}
			start = end
		}
	}
	if len(out) == 0 {
		out = append(out, s.latMs)
	}
	return out
}

// endToEnd fills the end-to-end metrics every workload reports.
//
// The measured sequence is cut into groups of whole rounds — every round has
// the same composition — and each timing metric is the median over groups of
// the group's value, so that a burst of interference from outside (this is a
// shared 2-core VM) moves a few groups and not the reported number.
//
// ops_per_s is ops over the summed timed windows: each workload is a closed
// loop with one op in flight, so this is its throughput at zero client think
// time, and the client-side verification between ops does not dilute it.
func (r *result) endToEnd(s *samples, setupS, allocKBPerOp float64) {
	r.Attempted, r.Failed = s.attempted, r.Failed+s.failed
	r.Errors = append(r.Errors, s.errs...)
	var rate, p50, p99 []float64
	for _, g := range s.groups(minGroupOps) {
		var busyMs float64
		for _, l := range g {
			busyMs += l
		}
		rate = append(rate, ratio(float64(len(g)), busyMs/1e3))
		p50 = append(p50, percentile(g, 0.50))
	}
	for _, g := range s.groups(minTailGroupOps) {
		p99 = append(p99, percentile(g, 0.99))
	}
	okShare := ratio(float64(s.attempted-s.failed), float64(s.attempted))
	r.set("ops_per_s", median(rate)*okShare, "1/s")
	r.set("op_p50_ms", median(p50), "ms")
	r.set("op_p99_ms", median(p99), "ms")
	r.set("alloc_kb_per_op", allocKBPerOp, "KiB")
	r.set("setup_s", setupS, "s")
}

// repeatSetup runs the whole set-up n times, tearing down every instance
// but the last, and returns the kept instance with the median set-up time.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	if n < 1 {
		n = 1
	}
	var kept T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		inst, err := setup()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(inst)
		} else {
			kept = inst
		}
	}
	return kept, median(times), nil
}

// ownMem is this process's allocation view (in-process workloads).
func ownMem() procMem {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procMem{
		TotalAlloc: m.TotalAlloc, Mallocs: m.Mallocs, PauseTotalNs: m.PauseTotalNs,
		PeakRSSKiB: peakRSSKiB(os.Getpid()),
	}
}

// procLayers reports the serving process's memory metrics of a traced pass.
func (r *result) procLayers(before, after procMem, ops int) {
	r.set("proc.peak_rss_mb", float64(after.PeakRSSKiB)/1024, "MiB")
	r.set("proc.mallocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), float64(ops)), "count")
	r.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms")
}

func allocKB(before, after procMem, ops int) float64 {
	return ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(ops))
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// layerMedians reports, for each named span, the median duration of the
// recorded spans under the metric name and unit given in table.
func (r *result) layerMedians(rec *spanRecorder, table map[string]layerUnit) {
	byName := make(map[string][]float64)
	for _, s := range rec.spans {
		byName[s.Name] = append(byName[s.Name], float64((s.End - s.Start).Nanoseconds()))
	}
	for name, lu := range table {
		if d := byName[name]; len(d) > 0 {
			r.set(lu.metric, median(d)/lu.nsPerUnit, lu.unit)
		}
	}
}

type layerUnit struct {
	metric    string
	unit      string
	nsPerUnit float64
}

func msMetric(name string) layerUnit { return layerUnit{name, "ms", 1e6} }
func usMetric(name string) layerUnit { return layerUnit{name, "us", 1e3} }
