package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// tinyConfig is a workload at its smallest size — one round, and for
// mapd-launch a population and round of a few dozen — which is enough ops to
// cross every code path against a real child mapd / a real world.
func tinyConfig(t *testing.T, workload string) *runConfig {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	population, requests := launchPopulation, launchRoundRequests
	launchPopulation, launchRoundRequests = 32, 64
	t.Cleanup(func() { launchPopulation, launchRoundRequests = population, requests })
	return &runConfig{workload: workload, seed: 7, seconds: 0.1, setups: 1, root: root}
}

func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child daemons and 64-rank worlds")
	}
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			defer stopAllChildren()
			res, err := runWorkload(tinyConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
			}
			for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p99_ms", "alloc_kb_per_op", "setup_s"} {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v, want a positive finite value", name, m)
				}
			}
			for _, c := range res.Checks {
				if strings.HasPrefix(c, "VIOLATED") {
					t.Error(c)
				}
			}
		})
	}
}

// TestTracedPassTiny runs one traced workload end to end: layer metrics are
// produced, spans nest, and no end-to-end metric leaks out of the pass.
func TestTracedPassTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a 64-rank world")
	}
	cfg := tinyConfig(t, wJobLaunch)
	cfg.trace = true
	res, err := runWorkload(cfg)
	if err != nil || res.Failed != 0 {
		t.Fatalf("err %v, failed %d: %v", err, res.Failed, res.Errors)
	}
	for _, name := range []string{"sched.compile_cold_ms", "sched.expand_ms", "mpi.world_start_ms", "mpi.reorder_ms", "mpi.split_ms", "proc.mallocs_per_op"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced job-launch produced no %s", name)
		}
	}
	for i, s := range cfg.rec.spans {
		if s.End < s.Start || s.Parent >= len(cfg.rec.spans) || s.Parent == i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
}

func coldBodies(t *testing.T, seed int64) []byte {
	t.Helper()
	warm, ops, err := coldOps(seed, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, op := range append(warm, ops...) {
		buf.Write(op.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Same seed, byte-identical op sequence; another seed, another sequence —
// for every workload's generator.
func TestSequencesAreSeeded(t *testing.T) {
	gens := map[string]func(seed int64) any{
		wMapdCold: func(seed int64) any { return coldBodies(t, seed) },
		wMapdLaunch: func(seed int64) any {
			return launchSequence(rand.New(rand.NewSource(seed)), 256, 3, 500)
		},
		wCollSteady: func(seed int64) any {
			return collSequence(rand.New(rand.NewSource(seed)), collMixes()[1], 2, 0, false)
		},
		wJobLaunch: func(seed int64) any { return jobRound(rand.New(rand.NewSource(seed)), 1, 0) },
		wPlanSweep: func(seed int64) any { return planQuarter(rand.New(rand.NewSource(seed)), 1) },
	}
	for name, gen := range gens {
		a, b, c := gen(1), gen(1), gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different op sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", name)
		}
	}
}

// The composition of a round never depends on the seed: only the order,
// the unique sizes and the payloads do.
func TestCompositionIsFixed(t *testing.T) {
	classes := func(seed int64) map[string]int {
		_, ops, err := coldOps(seed, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, op := range ops {
			out[op.cell.class()]++
		}
		return out
	}
	if a, b := classes(1), classes(99); !reflect.DeepEqual(a, b) {
		t.Errorf("mapd-cold class counts differ between seeds:\n%v\n%v", a, b)
	}
	if a, b := zipfRound(1024, 3, 2000), zipfRound(1024, 3, 2000); !reflect.DeepEqual(a, b) {
		t.Error("zipfRound is not a pure function of its arguments")
	}
	total, n := 0, 50
	for r := 0; r < n; r++ {
		for _, c := range zipfRound(1024, r, 2000) {
			total += c
		}
	}
	if got := float64(total) / float64(n); math.Abs(got-2000) > 20 {
		t.Errorf("zipfRound averages %.1f requests per round, want ~2000", got)
	}
	// Rank 0 carries its exact Zipf share over the long run.
	var h float64
	for i := 1; i <= 1024; i++ {
		h += math.Pow(float64(i), -zipfS)
	}
	rank0 := 0
	for r := 0; r < n; r++ {
		rank0 += zipfRound(1024, r, 2000)[0]
	}
	if want := float64(n) * 2000 / h; math.Abs(float64(rank0)-want) > 1 {
		t.Errorf("rank 0 requested %d times in %d rounds, want %.1f", rank0, n, want)
	}
}

// Layer replay picks its ops by what they ask for: every seed replays the
// same classes, and one round already feeds every replay metric.
func TestReplaySampleIsSeedFree(t *testing.T) {
	sampled := func(seed int64, rounds int) ([]mapOp, map[string]int) {
		_, ops, err := coldOps(seed, rounds, false)
		if err != nil {
			t.Fatal(err)
		}
		var picked []mapOp
		classes := map[string]int{}
		for _, op := range ops {
			if replaySampled(&op) {
				picked = append(picked, op)
				classes[op.cell.class()]++
			}
		}
		return picked, classes
	}
	_, a := sampled(2, 3)
	_, b := sampled(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replayed classes differ between seeds:\n%v\n%v", a, b)
	}
	ops, _ := sampled(2, 1)
	res, cfg := &result{}, &runConfig{rec: newSpanRecorder()}
	replayMapdLayers(cfg, res, ops)
	if res.Failed != 0 {
		t.Fatalf("replay failed: %v", res.Errors)
	}
	for _, lu := range mapdReplayMetrics {
		if _, ok := res.Metrics[lu.metric]; !ok {
			t.Errorf("one round's replay produced no %s", lu.metric)
		}
	}
}

func goodResponse(p int) *service.Response {
	r := &service.Response{Mapping: make([]int, p), Heuristic: "rmh"}
	for i := range r.Mapping {
		r.Mapping[i] = p - 1 - i
	}
	r.Results = []service.SizeResult{
		{Bytes: 1024, DefaultSeconds: 2e-5, ReorderedSeconds: 1e-5, UseReordered: true},
		{Bytes: 65536, DefaultSeconds: 4e-4, ReorderedSeconds: 5e-4},
	}
	return r
}

// The validators reject a non-permutation mapping, a degraded body and a
// one-byte-corrupted recv buffer, and each rejection is counted as a failure.
func TestValidatorsRejectAndCount(t *testing.T) {
	op := &mapOp{procs: 8, items: 1, sizes: 2}
	encode := func(r *service.Response) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, _, err := checkReply(op, 200, encode(goodResponse(8))); err != nil {
		t.Fatalf("a valid reply was rejected: %v", err)
	}
	dup := goodResponse(8)
	dup.Mapping[3] = dup.Mapping[4]
	degraded := goodResponse(8)
	degraded.Degraded = true
	short := goodResponse(8)
	short.Results = short.Results[:1]
	nan := goodResponse(8)
	nan.Results[0].DefaultSeconds = 0

	var s samples
	s.nextRound()
	for name, tc := range map[string]struct {
		status int
		body   []byte
	}{
		"non-permutation": {200, encode(dup)},
		"degraded":        {200, encode(degraded)},
		"missing row":     {200, encode(short)},
		"zero latency":    {200, encode(nan)},
		"status 400":      {400, []byte(`{"error":"nope"}`)},
		"not json":        {200, []byte(`<html>`)},
	} {
		_, _, err := checkReply(op, tc.status, tc.body)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		s.add(time.Millisecond, err)
	}
	s.add(time.Millisecond, nil)
	if s.attempted != 7 || s.failed != 6 {
		t.Errorf("attempted %d failed %d, want 7 and 6", s.attempted, s.failed)
	}
	res := &result{}
	res.endToEnd(&s, 1, 1)
	if res.Failed != 6 || res.Attempted != 7 {
		t.Errorf("result carries %d/%d failures, want 6/7", res.Failed, res.Attempted)
	}

	// Launch equality: a cached reply must match the computed one except for
	// cached / elapsed_us / trace.
	base, again := goodResponse(8), goodResponse(8)
	again.Cached, again.ElapsedMicros, again.Trace = true, 42, []service.TraceEvent{{Name: "cache-hit"}}
	if contentDigest(base) != contentDigest(again) {
		t.Error("digest depends on cached / elapsed_us / trace")
	}
	again.Mapping[0], again.Mapping[1] = again.Mapping[1], again.Mapping[0]
	if contentDigest(base) == contentDigest(again) {
		t.Error("digest ignores the mapping")
	}

	// Collective output: one corrupted byte anywhere is caught.
	const blk, p, seq = 64, 4, 17
	recv := make([]byte, p*blk)
	for r := 0; r < p; r++ {
		fillBlock(recv[r*blk:(r+1)*blk], dataBase(r, seq), 1)
	}
	scratch := make([]byte, blk)
	baseOf := func(r int) int { return dataBase(r, seq) }
	if err := expectBlocks(recv, scratch, blk, 1, baseOf); err != nil {
		t.Fatalf("clean buffer rejected: %v", err)
	}
	for _, i := range []int{0, 77, len(recv) - 1} {
		recv[i] ^= 0x01
		if err := expectBlocks(recv, scratch, blk, 1, baseOf); err == nil {
			t.Errorf("corrupted byte %d accepted", i)
		}
		recv[i] ^= 0x01
	}
	// The allreduce closed form is the byte-wise sum over ranks.
	sum := make([]byte, blk)
	for r := 0; r < p; r++ {
		fillBlock(scratch, dataBase(r, seq), 1)
		addBytes(sum, scratch)
	}
	if err := expectBlocks(sum, scratch, blk, p, func(int) int { return 37*p*(p-1)/2 + p*dataBase(0, seq) }); err != nil {
		t.Errorf("allreduce closed form disagrees with the summed inputs: %v", err)
	}
}

// A violated bypass prediction refuses the run; a sizing note off its target
// is reported and does not.
func TestChecksFailNotesDoNot(t *testing.T) {
	res := &result{}
	res.check(true, "holds")
	res.note(false, "busiest kind has %d%%", 23)
	if res.Failed != 0 || len(res.Checks) != 2 || !strings.HasPrefix(res.Checks[1], "OFF TARGET") {
		t.Errorf("after a note off target: failed %d, checks %q", res.Failed, res.Checks)
	}
	res.check(false, "%d cache hits", 3)
	if res.Failed != 1 || !strings.HasPrefix(res.Checks[2], "VIOLATED") {
		t.Errorf("after a violated check: failed %d, checks %q", res.Failed, res.Checks)
	}
}

func TestPercentilesAndSpread(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := percentile(v, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{16, 1, 8, 2, 4}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}

	// Groups are whole rounds of at least the asked number of ops; too few
	// ops for two groups make one.
	var s samples
	for r := 0; r < 7; r++ {
		s.nextRound()
		for i := 0; i < 40; i++ {
			s.add(time.Duration(r+1)*time.Millisecond, nil)
		}
	}
	g := s.groups(100)
	if len(g) != 2 || len(g[0]) != 120 || len(g[1]) != 160 {
		t.Errorf("groups of %d rounds x 40 ops: %d groups, sizes %v", 7, len(g), []int{len(g[0]), len(g[len(g)-1])})
	}
	if g := s.groups(minTailGroupOps); len(g) != 1 || len(g[0]) != 280 {
		t.Errorf("280 ops cut into %d tail groups, want the whole sequence as one", len(g))
	}
}

func TestSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: 0, End: msd(100), Parent: -1},
		{Name: "a", Start: msd(10), End: msd(40), Parent: 0},
		{Name: "b", Start: msd(30), End: msd(60), Parent: 0},       // overlaps a: the overlap counts once
		{Name: "c", Start: msd(90), End: msd(120), Parent: 0},      // runs past its parent: clipped
		{Name: "a.inner", Start: msd(15), End: msd(20), Parent: 1}, // grandchild: does not touch op
		{Name: "replay", Start: msd(200), End: msd(210), Parent: 0},
	}
	self := selfTimes(spans)
	want := []time.Duration{msd(100 - 50 - 10), msd(25), msd(30), msd(30), msd(5), msd(10)}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	rec := newSpanRecorder()
	start := rec.start
	rec.call("layer", -1, 3, func() {})
	root := rec.closeOp("op", start, time.Now(), 3)
	if rec.spans[0].Parent != root {
		t.Errorf("closeOp did not adopt the op's layer span: %+v", rec.spans[0])
	}
}

func TestParseExports(t *testing.T) {
	prom := parseProm(strings.NewReader(`# HELP mapd_cache_hits_total x
# TYPE mapd_cache_hits_total counter
mapd_cache_hits_total 12
mapd_responses_total{outcome="ok"} 7
mapd_responses_total{outcome="degraded"} 2
schedule_compile_seconds_count{view="exec"} 3
mapd_request_seconds_bucket{le="+Inf"} 9
`))
	if prom.sum("mapd_cache_hits_total") != 12 || prom.sum("mapd_responses_total") != 9 {
		t.Errorf("sums: %v", prom)
	}
	if prom.get(`mapd_responses_total{outcome="degraded"}`) != 2 || prom.sum("mapd_cache") != 0 {
		t.Errorf("exact series lookup / prefix isolation: %v", prom)
	}
	d := prom.delta(promSample{"mapd_cache_hits_total": 10})
	if d["mapd_cache_hits_total"] != 2 {
		t.Errorf("delta = %v", d)
	}

	heap := []byte("heap profile: ...\n\n# runtime.MemStats\n# Alloc = 5\n# TotalAlloc = 718208\n# Mallocs = 2172\n# PauseNs = [100 300 0 0]\n# NumGC = 4\n")
	pm, err := parseHeapText(heap)
	if err != nil || pm.TotalAlloc != 718208 || pm.Mallocs != 2172 || pm.PauseTotalNs != 800 {
		t.Errorf("parseHeapText = %+v, %v", pm, err)
	}
	if _, err := parseHeapText([]byte("nothing here")); err == nil {
		t.Error("heap text without MemStats accepted")
	}
}

func TestCompareSets(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	set := func(seed int64, ops, p50, msgs []float64) *resultSet {
		s := &resultSet{Header: setHeader{Seed: seed, Seconds: 10}}
		for i := range ops {
			s.Runs = append(s.Runs, runRecord{Workload: wCollSteady, Metrics: map[string]metric{
				"ops_per_s": {ops[i], "1/s"}, "op_p50_ms": {p50[i], "ms"}}})
		}
		for _, m := range msgs {
			s.Runs = append(s.Runs, runRecord{Workload: wCollSteady, Traced: true, Metrics: map[string]metric{"mpi.msgs_per_op": {m, "count"}}})
		}
		return s
	}
	verdicts := func(a, b *resultSet) (map[string]string, int) {
		rows, regressed := compareSets(spec, a, b)
		out := map[string]string{}
		for _, r := range rows {
			out[r.metric] = r.verdict
		}
		return out, regressed
	}
	steady := []float64{100, 101, 99, 100, 100}
	base := set(1, steady, []float64{1, 1.01, 0.99, 1, 1}, []float64{384})

	v, n := verdicts(base, set(1, []float64{97, 98, 96, 97, 97}, []float64{1.05, 1.04, 1.06, 1.05, 1.05}, []float64{384}))
	if n != 0 || v["ops_per_s"] != "ok" || v["op_p50_ms"] != "ok" || v["mpi.msgs_per_op"] != "ok" {
		t.Errorf("within bounds: %v, %d regressed", v, n)
	}
	v, n = verdicts(base, set(1, []float64{85, 86, 84, 85, 85}, []float64{1, 1, 1, 1, 1}, []float64{385}))
	if n != 2 || v["ops_per_s"] != "regressed" || v["mpi.msgs_per_op"] != "regressed" {
		t.Errorf("throughput down 15%% and a moved count: %v, %d regressed", v, n)
	}
	v, _ = verdicts(base, set(1, []float64{70, 120, 85, 130, 60}, []float64{1, 1, 1, 1, 1}, nil))
	if v["ops_per_s"] != "unresolved" {
		t.Errorf("spread wider than the bound: %v", v)
	}
	v, _ = verdicts(base, set(1, []float64{150, 190, 240, 300, 170}, []float64{1, 1, 1, 1, 1}, nil))
	if v["ops_per_s"] != "ok" {
		t.Errorf("every run better than every baseline run: %v", v)
	}
	v, n = verdicts(base, set(2, steady, []float64{1, 1, 1, 1, 1}, []float64{390}))
	if n != 0 || v["mpi.msgs_per_op"] != "unresolved" {
		t.Errorf("different seeds need not repeat counts: %v, %d regressed", v, n)
	}
}

func TestSpecShapesOutput(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []specMetric{{Name: "ops_per_s", Unit: "1/s"}},
		PerLayer: []specMetric{{Name: "store.get_us", Unit: "us"}},
	}
	res := &result{}
	res.set("ops_per_s", 10, "1/s")
	res.set("model.gain_pct.plan", 20, "%")
	got, err := spec.shape(res, false)
	if err != nil || len(got) != 1 || got["ops_per_s"].Value != 10 {
		t.Errorf("shape(untraced) = %v, %v", got, err)
	}
	if _, err := spec.shape(res, true); err == nil {
		t.Error("a traced result without a declared layer metric was accepted")
	}
	res.set("store.get_us", 1.5, "ms")
	if _, err := spec.shape(res, true); err == nil {
		t.Error("a unit mismatch was accepted")
	}
}

// BENCHMARK.json and the code agree on the workload names.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames)
	}
	for name := range exactMetrics {
		found := false
		for _, m := range spec.PerLayer {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("exact metric %s is not a declared per-layer metric", name)
		}
	}
}
