package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/service"
)

// mapdInstance is a set-up mapd workload: the live daemon plus whatever the
// measured phase needs that was generated before the first timed op.
type mapdInstance struct {
	proc *mapdProc
	// launch only: the populated requests, by popularity rank.
	keys []mapOp
}

// ---- mapd-cold ----------------------------------------------------------

// coldSecondsPerRound is one cold round's busy time on the seed commit
// (2 cores): --seconds / this = rounds.
const coldSecondsPerRound = 1.25

// coldRound is the fixed composition of one mapd-cold round: every
// (topology, pattern, layout) single once — all-to-all only where p <= 256,
// see README — a quarter of them under heuristic "auto", then 10% batch
// bodies of 4 patterns and 5% explicit CSR graphs.
func coldRound() []cell {
	var cells []cell
	for t := range topologies {
		for p := range mapPatterns {
			if mapPatterns[p] == "alltoall" && topologies[t].cores > 256 {
				continue
			}
			for l := range mapLayouts {
				cells = append(cells, cell{topo: t, pattern: p, layout: l, auto: len(cells)%4 == 1})
			}
		}
	}
	singles := len(cells)
	for i := 0; i < singles/10+3; i++ { // 16 batches of 156: 10%
		cells = append(cells, cell{topo: i % len(topologies), layout: i % len(mapLayouts), kind: kindBatch})
	}
	graphs := []cell{
		{topo: tUniform64, graphN: 64}, {topo: tFat64, graphN: 64},
		{topo: tFat256, graphN: 128}, {topo: tTorus256, graphN: 128},
		{topo: tFat256, graphN: 256}, {topo: tTorus256, graphN: 256},
		{topo: tFat1024, graphN: 192}, {topo: tTorus64, graphN: 64},
	}
	for i, g := range graphs { // 8 of 156: 5%
		g.kind, g.layout = kindGraph, i%len(mapLayouts)
		cells = append(cells, g)
	}
	return cells
}

// coldWarmup touches every (topology, pattern) class once so that first-use
// costs (cluster fingerprint memo, base-schedule compiles) are not timed.
func coldWarmup() []cell {
	var cells []cell
	for _, c := range coldRound() {
		if c.kind != kindSingle || c.layout == 0 {
			cells = append(cells, c)
		}
	}
	return cells
}

// coldOps renders rounds of the fixed composition in a seeded order with
// run-unique cache keys. uniq counts up from base.
func coldOps(seed int64, rounds int, trace bool) (warm, measured []mapOp, err error) {
	rng := rand.New(rand.NewSource(seed))
	uniq := 1 + rng.Intn(1<<16)
	render := func(cells []cell, round int) ([]mapOp, error) {
		ops := make([]mapOp, 0, len(cells))
		for _, i := range shuffled(rng, len(cells)) {
			uniq++
			op, err := buildOp(cells[i], uniq, rng, trace)
			if err != nil {
				return nil, err
			}
			op.round, op.slot = round, i
			ops = append(ops, op)
		}
		return ops, nil
	}
	if warm, err = render(coldWarmup(), 0); err != nil {
		return nil, nil, err
	}
	for r := 0; r < rounds; r++ {
		ops, err := render(coldRound(), r)
		if err != nil {
			return nil, nil, err
		}
		ops[0].newRound = true
		measured = append(measured, ops...)
	}
	return warm, measured, nil
}

func runMapdCold(cfg *runConfig) (*result, error) {
	res := &result{Workload: wMapdCold}
	rounds := cfg.rounds(coldSecondsPerRound)
	var warm, ops []mapOp
	inst, setupS, err := repeatSetup(cfg.setups, func() (*mapdInstance, error) {
		bin, err := buildMapd(cfg.root)
		if err != nil {
			return nil, err
		}
		proc, err := startMapd(cfg.root, bin)
		if err != nil {
			return nil, err
		}
		if warm, ops, err = coldOps(cfg.seed, rounds, cfg.trace); err == nil {
			err = warmMapd(proc, warm)
		}
		if err != nil {
			proc.stop()
			return nil, fmt.Errorf("mapd-cold set-up: %w", err)
		}
		return &mapdInstance{proc: proc}, nil
	}, func(i *mapdInstance) { i.proc.stop() })
	if err != nil {
		return nil, err
	}
	defer inst.proc.stop()

	obs, err := measureMapd(cfg, inst.proc, ops)
	if err != nil {
		return nil, err
	}
	res.endToEnd(&obs.samples, setupS, allocKB(obs.memBefore, obs.memAfter, obs.attempted))
	d := obs.counters
	res.check(d.sum("mapd_cache_hits_total") == 0 && d.sum("mapd_store_hits_total") == 0,
		"mapd-cold bypasses the result cache and store reads: %v cache hits, %v store hits",
		d.sum("mapd_cache_hits_total"), d.sum("mapd_store_hits_total"))
	res.check(d.sum("mapd_computations_total") == float64(obs.patterns),
		"mapd-cold computes every pattern: %v computes for %d patterns", d.sum("mapd_computations_total"), obs.patterns)
	if cfg.trace {
		obs.coldLayers(res)
		replayMapdLayers(cfg, res, ops)
		res.procLayers(obs.memBefore, obs.memAfter, obs.attempted)
	}
	res.set("model.gain_pct.mapd", mean(obs.gains), "%")
	return res, nil
}

// warmMapd sends the untimed warm-up requests, verifying each reply.
func warmMapd(proc *mapdProc, warm []mapOp) error {
	for i := range warm {
		status, reply, _, err := proc.post(warm[i].body)
		if err == nil {
			_, _, err = checkReply(&warm[i], status, reply)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", warm[i].cell.class(), err)
		}
	}
	return nil
}

// ---- mapd-launch --------------------------------------------------------

const (
	// One 2 000-request round: 0.4 s of timed windows plus as much again for
	// checking every reply against its population-phase digest, which shares
	// the CPU (see pinToOneCPU).
	launchSecondsPerRound = 0.8
	zipfS                 = 1.1
)

// Variables so that the package's tests can run the workload small.
var (
	launchPopulation    = 1024 // 2x the default 512-entry LRU (ISSUE 11 sized 2048; populating them three times a run does not fit the run-time cap)
	launchRoundRequests = 2000
)

// launchSlots fixes, by popularity rank mod 64, which topology a populated
// key uses — rank decides class, never the seed, because under Zipf(1.1)
// rank 0 alone carries a sixth of the traffic and its reply size (1 KB for
// 64 cores, 40 KB for GPC) would otherwise swing between seeds. The first
// slots give the hottest ranks a spread of sizes; GPC and torus-256 are
// rare so that populating 2 048 keys stays a couple of seconds.
var launchSlots = func() [64]int {
	var slots [64]int
	head := []int{tFat256, tGPC, tFat64, tFat1024, tTorus64, tUniform64, tTorus256, tFat256}
	copy(slots[:], head)
	rest := []int{tUniform64, tFat64, tFat256, tTorus64, tFat64, tUniform64, tFat256, tFat1024,
		tUniform64, tFat64, tTorus64, tFat256, tTorus64, tUniform64}
	for i := len(head); i < len(slots); i++ {
		slots[i] = rest[(i-len(head))%len(rest)]
	}
	return slots
}()

// launchCells lists the populated keys by popularity rank.
func launchCells(n int) []cell {
	cells := make([]cell, n)
	for rank := range cells {
		variant := rank / len(launchSlots)
		cells[rank] = cell{
			topo:    launchSlots[rank%len(launchSlots)],
			pattern: (rank + variant) % 4, // the four heuristic patterns; no all-to-all
			layout:  (rank/4 + variant) % len(mapLayouts),
			auto:    rank%4 == 3,
		}
	}
	return cells
}

// zipfRound returns how often each rank is requested in round r: the
// rank's exact Zipf(s) rate times the round size, dithered by a fixed
// per-rank phase so that every rank is hit at its long-run rate while each
// round's composition stays a pure function of (n, r) — the seed only
// orders the requests.
func zipfRound(n, round, requests int) []int {
	var h float64
	for i := 1; i <= n; i++ {
		h += math.Pow(float64(i), -zipfS)
	}
	counts := make([]int, n)
	for i := range counts {
		rate := float64(requests) * math.Pow(float64(i+1), -zipfS) / h
		phase := math.Mod(float64(i)*0.6180339887498949, 1)
		counts[i] = int(math.Floor(float64(round+1)*rate+phase)) - int(math.Floor(float64(round)*rate+phase))
	}
	return counts
}

// launchSequence expands round r into a seeded order of popularity ranks.
func launchSequence(rng *rand.Rand, n, round, requests int) []int {
	var seq []int
	for rank, c := range zipfRound(n, round, requests) {
		for ; c > 0; c-- {
			seq = append(seq, rank)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func runMapdLaunch(cfg *runConfig) (*result, error) {
	res := &result{Workload: wMapdLaunch}
	rounds := cfg.rounds(launchSecondsPerRound)
	population, requests := launchPopulation, launchRoundRequests
	inst, setupS, err := repeatSetup(cfg.setups, func() (*mapdInstance, error) {
		bin, err := buildMapd(cfg.root)
		if err != nil {
			return nil, err
		}
		proc, err := startMapd(cfg.root, bin)
		if err != nil {
			return nil, err
		}
		keys, err := populate(proc, cfg.seed, population, cfg.trace)
		if err == nil {
			// Warm-up: 5% of the measured request count, same distribution.
			rng := rand.New(rand.NewSource(cfg.seed ^ 0x7761726d))
			var warm []mapOp
			for _, rank := range launchSequence(rng, population, 0, requests*rounds/20+1) {
				warm = append(warm, keys[rank])
			}
			err = warmMapd(proc, warm)
		}
		if err != nil {
			proc.stop()
			return nil, fmt.Errorf("mapd-launch set-up: %w", err)
		}
		return &mapdInstance{proc: proc, keys: keys}, nil
	}, func(i *mapdInstance) { i.proc.stop() })
	if err != nil {
		return nil, err
	}
	defer inst.proc.stop()

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x6c61756e6368))
	var ops []mapOp
	for r := 0; r < rounds; r++ {
		first := len(ops)
		for _, rank := range launchSequence(rng, population, r, requests) {
			ops = append(ops, inst.keys[rank])
		}
		ops[first].newRound = true
	}
	obs, err := measureMapd(cfg, inst.proc, ops)
	if err != nil {
		return nil, err
	}
	res.endToEnd(&obs.samples, setupS, allocKB(obs.memBefore, obs.memAfter, obs.attempted))
	d := obs.counters
	res.check(d.sum("mapd_computations_total") == 0,
		"mapd-launch bypasses the compute layers: %v computes in %d requests", d.sum("mapd_computations_total"), obs.attempted)
	res.check(d.sum("mapd_cache_hits_total")+d.sum("mapd_store_hits_total") == float64(obs.attempted),
		"every mapd-launch request is an LRU or a store hit: %v + %v of %d",
		d.sum("mapd_cache_hits_total"), d.sum("mapd_store_hits_total"), obs.attempted)
	if cfg.trace {
		obs.launchLayers(res, cfg.rec)
		storeLayers(cfg, res, inst)
		forwardHopLayer(cfg, res)
		res.procLayers(obs.memBefore, obs.memAfter, obs.attempted)
	}
	return res, nil
}

// populate computes every key once through the normal request path and
// keeps the digest of each reply for the later equality check.
func populate(proc *mapdProc, seed int64, n int, trace bool) ([]mapOp, error) {
	rng := rand.New(rand.NewSource(seed))
	uniq := 1 + rng.Intn(1<<16)
	cells := launchCells(n)
	keys := make([]mapOp, n)
	// Populate coldest first so that the hottest ranks are the most recent
	// LRU entries when traffic starts.
	for rank := n - 1; rank >= 0; rank-- {
		uniq++
		op, err := buildOp(cells[rank], uniq, rng, trace)
		if err != nil {
			return nil, err
		}
		status, reply, _, err := proc.post(op.body)
		if err != nil {
			return nil, err
		}
		resps, _, err := checkReply(&op, status, reply)
		if err != nil {
			return nil, fmt.Errorf("populate rank %d (%s): %w", rank, cells[rank].class(), err)
		}
		for _, r := range resps {
			op.digests = append(op.digests, contentDigest(r))
		}
		keys[rank] = op
	}
	return keys, nil
}

// ---- shared measured loop -----------------------------------------------

// mapdObs is everything one measured mapd phase observed.
type mapdObs struct {
	samples
	patterns            int // responses returned (batch bodies count 4)
	memBefore, memAfter procMem
	counters            promSample // /metrics delta over the phase
	gains               []float64
	// layerMs, traced pass: server-side elapsed_us samples in milliseconds,
	// keyed by the layer metric they feed.
	layerMs map[string][]float64
}

// measureMapd runs ops closed-loop on the single keep-alive connection.
func measureMapd(cfg *runConfig, proc *mapdProc, ops []mapOp) (*mapdObs, error) {
	obs := &mapdObs{layerMs: make(map[string][]float64)}
	var err error
	if obs.memBefore, err = proc.mem(); err != nil {
		return nil, err
	}
	before, err := proc.scrape()
	if err != nil {
		return nil, err
	}
	for i := range ops {
		op := &ops[i]
		if op.newRound || i == 0 {
			obs.nextRound()
		}
		sent := time.Now()
		status, reply, lat, err := proc.post(op.body)
		if err != nil {
			obs.add(lat, fmt.Errorf("transport: %w", err))
			continue
		}
		// Verification, outside the timed window.
		resps, elapsedUS, verr := checkReply(op, status, reply)
		if verr == nil && op.digests != nil {
			for j, r := range resps {
				if contentDigest(r) != op.digests[j] {
					verr = fmt.Errorf("%s: reply differs from the population-phase reply", op.cell.class())
				}
			}
		}
		obs.add(lat, verr)
		if verr != nil {
			continue
		}
		obs.patterns += len(resps)
		obs.gains = modelGains(obs.gains, resps)
		if cfg.trace {
			obs.traceOp(cfg.rec, i, op, sent, lat, elapsedUS, resps)
		}
	}
	after, err := proc.scrape()
	if err != nil {
		return nil, err
	}
	obs.counters = after.delta(before)
	if obs.memAfter, err = proc.mem(); err != nil {
		return nil, err
	}
	return obs, nil
}

// traceOp turns one reply's public fields — elapsed_us and the "trace":true
// timeline — into spans and per-class samples.
func (o *mapdObs) traceOp(rec *spanRecorder, id int, op *mapOp, sent time.Time, lat time.Duration, elapsedUS int64, resps []*service.Response) {
	elapsed := time.Duration(elapsedUS) * time.Microsecond
	sample := func(metric string, d time.Duration) { o.layerMs[metric] = append(o.layerMs[metric], ms(d)) }
	sample("service.elapsed", elapsed)
	root := rec.add("mapd.op", sent, sent.Add(lat), -1, id)
	// The daemon's clock offset is unknown; centre its span in the reply.
	svcStart := sent.Add((lat - elapsed) / 2)
	svc := rec.add("service.compute", svcStart, svcStart.Add(elapsed), root, id)
	if op.cell.kind == kindBatch {
		sample("service.batch_item_ms", elapsed/time.Duration(op.items))
		return
	}
	// Marks by name; "selected:<heuristic>" and the like by their prefix.
	marks := make(map[string]time.Duration)
	for _, e := range resps[0].Trace {
		name, _, _ := strings.Cut(e.Name, ":")
		marks[name] = time.Duration(e.AtMicros) * time.Microsecond
	}
	dist, computed := marks["distances"]
	sel, selected := marks["selected"]
	switch {
	case hasKey(marks, "cache-hit"):
		sample("service.hit_ms", elapsed)
	case hasKey(marks, "store-hit"):
		sample("service.store_hit_ms", elapsed)
	case computed && selected:
		sample("service.miss_ms", elapsed)
		sample("service.env_ms", dist)
		sample("service.evaluate_ms", sel-dist)
		rec.add("service.env", svcStart, svcStart.Add(dist), svc, id)
		rec.add("service.evaluate", svcStart.Add(dist), svcStart.Add(sel), svc, id)
	}
}

func hasKey(m map[string]time.Duration, k string) bool {
	_, ok := m[k]
	return ok
}

// layerMedians reports the median of each named per-class sample set.
func (o *mapdObs) layerMedians(res *result, metrics ...string) {
	for _, m := range metrics {
		res.set(m, median(o.layerMs[m]), "ms")
	}
}

// coldLayers reports the response-field layer metrics whose home is
// mapd-cold.
func (o *mapdObs) coldLayers(res *result) {
	res.set("service.elapsed_p50_ms", percentile(o.layerMs["service.elapsed"], 0.50), "ms")
	res.set("service.elapsed_p99_ms", percentile(o.layerMs["service.elapsed"], 0.99), "ms")
	o.layerMedians(res, "service.miss_ms", "service.env_ms", "service.evaluate_ms", "service.batch_item_ms")
}

// launchLayers reports the layer metrics whose home is mapd-launch.
func (o *mapdObs) launchLayers(res *result, rec *spanRecorder) {
	d, n := o.counters, float64(o.attempted)
	// Transport is the op span's self time: client latency minus the part
	// its service.compute child (elapsed_us) covers.
	res.set("mapd.transport_p50_ms", median(selfTimeByName(rec.spans)["mapd.op"]), "ms")
	o.layerMedians(res, "service.hit_ms", "service.store_hit_ms")
	res.set("service.cache_hit_ratio", ratio(d.sum("mapd_cache_hits_total"), n), "ratio")
	res.set("service.store_hit_ratio", ratio(d.sum("mapd_store_hits_total"), n), "ratio")
	res.set("service.computes_per_op", ratio(d.sum("mapd_computations_total"), n), "count")
	res.set("service.flight_shared", d.sum("mapd_flight_shared_total"), "count")
	res.set("service.shed_or_degraded", d.sum("mapd_shed_total")+d.get(`mapd_responses_total{outcome="degraded"}`), "count")
	res.set("service.cache_evictions", d.sum("mapd_cache_evictions_total"), "count")
	res.set("store.compactions", d.sum("mapd_store_compactions_total"), "count")
}
