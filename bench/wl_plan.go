package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/hwdisc"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/synth"
	"repro/internal/topology"
)

// planKind is one facade call of plan-sweep.
type planKind uint8

const (
	pPlan planKind = iota
	pSpeedup
	pScotch
	pPipelined
	pSynth
)

var planKindNames = []string{"Plan", "Speedup", "ScotchMap", "PricePipelined", "synth.Search"}

type planOp struct {
	kind    planKind
	layout  int // index into topology.AllLayouts
	pattern repro.Pattern
	size    int          // Speedup / synth payload
	family  synth.Family // pSynth
	// newRound marks the first op of a pass: plan-sweep's rounds are whole
	// passes, the unit that covers the full layout x pattern cross product.
	newRound bool
}

// osuSizes are the 17 OSU message sizes, 4 B to 256 KiB.
var osuSizes = func() []int {
	var sizes []int
	for s := 4; s <= 256<<10; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}()

var planPatterns = []repro.Pattern{repro.RecursiveDoubling, repro.Ring, repro.BinomialBroadcast, repro.BinomialGather}

// planSecondsPerQuarter: a pass over GPC p=4096 x 4 layouts x 4 patterns is
// cut into four quarters along a Latin square — quarter q plans layout i
// with pattern (i+q) mod 4 — so every quarter touches every layout and every
// pattern once. Each Plan is followed by its Speedup sweep over the 17 OSU
// sizes; each quarter adds three synth searches, five ScotchMap and five
// PricePipelined calls. --seconds 15 is three full passes.
const planSecondsPerQuarter = 1.5

func planQuarter(rng *rand.Rand, q int) []planOp {
	var ops []planOp
	for _, i := range shuffled(rng, len(topology.AllLayouts)) {
		pat := planPatterns[(i+q)%len(planPatterns)]
		ops = append(ops, planOp{kind: pPlan, layout: i, pattern: pat})
		for _, k := range shuffled(rng, len(osuSizes)) {
			ops = append(ops, planOp{kind: pSpeedup, layout: i, pattern: pat, size: osuSizes[k]})
		}
	}
	fams := synth.Families()
	for k := 0; k < 3; k++ {
		n := (q%4)*3 + k // 12 searches per pass: every family x {2 KiB, 256 KiB}
		ops = append(ops, planOp{kind: pSynth, family: fams[n%len(fams)], size: []int{2 << 10, 256 << 10}[n/len(fams)%2]})
	}
	// Five of each: with fewer, the median op of a pass falls on the edge
	// between two Speedup classes (binomial broadcast at ~1.2 ms, binomial
	// gather at ~2.3 ms) and op_p50_ms swings twice as far as the host
	// drifts; with these it lands in the middle of the gather class.
	for k := 0; k < 5; k++ {
		ops = append(ops, planOp{kind: pScotch, pattern: repro.Ring}, planOp{kind: pPipelined, size: 64 << 10})
	}
	return ops
}

// planWarmup is one op of every kind, 21 in all and the same on every seed
// (see runPlanSweep): a recursive-doubling Plan with its whole Speedup sweep,
// one synth search, one ScotchMap and one PricePipelined.
func planWarmup() []planOp {
	ops := []planOp{{kind: pPlan, layout: 0, pattern: repro.RecursiveDoubling}}
	for _, size := range osuSizes {
		ops = append(ops, planOp{kind: pSpeedup, layout: 0, pattern: repro.RecursiveDoubling, size: size})
	}
	return append(ops,
		planOp{kind: pSynth, family: synth.Allgather, size: 2 << 10},
		planOp{kind: pScotch, pattern: repro.Ring},
		planOp{kind: pPipelined, size: 64 << 10})
}

// planEnv holds the inputs built before the first timed op.
type planEnv struct {
	gpc     *repro.Cluster
	machine *repro.Machine
	layouts [][]int // GPC p=4096, one per layout kind, on a seeded node rotation
	plans   map[[2]int]*repro.ReorderPlan
	fat1024 *topology.Distances // ScotchMap host
	hier    *sched.Schedule     // PricePipelined input
	synthM  *simnet.Machine     // 64-rank fat-tree
	gains   []float64
}

func newPlanEnv(seed int64) (*planEnv, error) {
	env := &planEnv{gpc: repro.GPC(), plans: make(map[[2]int]*repro.ReorderPlan)}
	var err error
	if env.machine, err = repro.NewMachine(env.gpc, repro.DefaultCostParams()); err != nil {
		return nil, err
	}
	// The job's nodes are the whole machine, entered at a seeded node: the
	// same sizes on every seed, a different placement.
	rng := rand.New(rand.NewSource(seed))
	first := rng.Intn(env.gpc.Nodes)
	nodes := make([]int, env.gpc.Nodes)
	for i := range nodes {
		nodes[i] = (first + i) % env.gpc.Nodes
	}
	for _, kind := range topology.AllLayouts {
		layout, err := repro.NewLayoutOnNodes(env.gpc, env.gpc.TotalCores(), kind, nodes)
		if err != nil {
			return nil, err
		}
		env.layouts = append(env.layouts, layout)
	}
	fat, err := clusterOf(&topologies[tFat1024].spec)
	if err != nil {
		return nil, err
	}
	fatLayout, err := topology.Layout(fat, 1024, topology.CyclicBunch)
	if err != nil {
		return nil, err
	}
	if env.fat1024, err = topology.NewDistances(fat, fatLayout); err != nil {
		return nil, err
	}
	groups := sched.Groups(env.layouts[0], env.gpc.NodeOf)
	if env.hier, err = sched.Hierarchical(groups, sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRing}); err != nil {
		return nil, err
	}
	small, err := clusterOf(&topologies[tFat64].spec)
	if err != nil {
		return nil, err
	}
	env.synthM, err = simnet.NewMachine(small, simnet.DefaultParams())
	return env, err
}

// do runs one op; everything it returns is checked by the caller after the
// timer has stopped.
func (env *planEnv) do(op *planOp) (check func() error) {
	switch op.kind {
	case pPlan:
		plan, err := repro.Plan(env.gpc, env.layouts[op.layout], op.pattern)
		return func() error {
			if err != nil {
				return err
			}
			env.plans[[2]int{op.layout, int(op.pattern)}] = plan
			if err := plan.Mapping.Validate(); err != nil {
				return err
			}
			if !isPermutation(plan.Mapping, len(plan.Layout)) {
				return fmt.Errorf("plan mapping is not a permutation")
			}
			return nil
		}
	case pSpeedup:
		plan := env.plans[[2]int{op.layout, int(op.pattern)}]
		if plan == nil {
			return func() error { return fmt.Errorf("Speedup before its Plan") }
		}
		def, re, improvement, err := plan.Speedup(env.machine, op.size)
		return func() error {
			if err != nil {
				return err
			}
			if !finitePositive(def) || !finitePositive(re) {
				return fmt.Errorf("Speedup prices %v / %v are not finite and positive", def, re)
			}
			env.gains = append(env.gains, improvement)
			return nil
		}
	case pScotch:
		m, err := repro.ScotchMap(op.pattern, env.fat1024)
		return func() error {
			if err != nil {
				return err
			}
			if !isPermutation(m, env.fat1024.N()) {
				return fmt.Errorf("ScotchMap result is not a permutation")
			}
			return nil
		}
	case pPipelined:
		price, err := env.machine.PricePipelined(env.hier, env.layouts[0], op.size)
		return func() error {
			if err != nil {
				return err
			}
			if !finitePositive(price) {
				return fmt.Errorf("pipelined price %v is not finite and positive", price)
			}
			return nil
		}
	default:
		r, err := synth.Search(env.synthM, nil, op.family, 64, op.size, synth.Options{})
		return func() error {
			if err != nil {
				return err
			}
			if r.Best == nil || !finitePositive(r.Best.Price) || !finitePositive(r.Baseline.Price) {
				return fmt.Errorf("synth.Search(%v, %d) returned no finite best/baseline price", op.family, op.size)
			}
			env.gains = append(env.gains, 100*r.Improvement())
			return nil
		}
	}
}

func runPlanSweep(cfg *runConfig) (*result, error) {
	res := &result{Workload: wPlanSweep}
	quarters := cfg.rounds(planSecondsPerQuarter)
	if quarters >= 4 { // whole passes, so the mix is the full cross product
		quarters = (quarters + 2) / 4 * 4
	}
	var ops []planOp
	env, setupS, err := repeatSetup(cfg.setups, func() (*planEnv, error) {
		rng := rand.New(rand.NewSource(cfg.seed))
		ops = ops[:0]
		for q := 0; q < quarters; q++ {
			quarter := planQuarter(rng, q)
			quarter[0].newRound = q%4 == 0
			ops = append(ops, quarter...)
		}
		env, err := newPlanEnv(cfg.seed)
		if err != nil {
			return nil, err
		}
		// Warm-up, untimed and the same on every seed (a seeded prefix of
		// the sequence would make setup_s depend on which pattern comes
		// first: a recursive-doubling Speedup costs ~20x a ring one).
		for _, op := range planWarmup() {
			if err := env.do(&op)(); err != nil {
				return nil, fmt.Errorf("plan-sweep warm-up %s: %w", planKindNames[op.kind], err)
			}
		}
		env.gains = nil
		return env, nil
	}, func(*planEnv) {})
	if err != nil {
		return nil, err
	}

	var s samples
	before, memBefore := ownMetrics(), ownMem()
	for i := range ops {
		op := &ops[i]
		if op.newRound {
			s.nextRound()
		}
		start := time.Now()
		check := env.do(op)
		end := time.Now()
		s.add(end.Sub(start), check())
		if cfg.trace {
			root := cfg.rec.add("plan.op/"+planKindNames[op.kind], start, end, -1, i)
			if i%10 == 0 || op.kind != pSpeedup {
				env.replayLayers(cfg.rec, root, i, op)
			}
		}
	}
	memAfter := ownMem()
	d := ownMetrics().delta(before)
	res.endToEnd(&s, setupS, allocKB(memBefore, memAfter, s.attempted))
	res.set("model.gain_pct.plan", mean(env.gains), "%")
	if cfg.trace {
		res.layerMedians(cfg.rec, map[string]layerUnit{
			"hwdisc.discover":       msMetric("hwdisc.discover_ms"),
			"topology.distances":    msMetric("topology.distances_ms"),
			"simnet.price_program":  msMetric("simnet.price_program_ms"),
			"simnet.price_pipeline": msMetric("simnet.price_pipelined_ms"),
			"synth.search":          msMetric("synth.search_ms"),
		})
		cands := d.sum("synth_candidates_total")
		pruned := d.sum("synth_pruned_verify_total") + d.sum("synth_pruned_bound_total") + d.sum("synth_pruned_shape_total")
		res.set("synth.candidates_per_s", ratio(cands, d.sum("synth_search_seconds_sum")), "1/s")
		res.set("synth.pruned_ratio", ratio(pruned, cands), "ratio")
		res.procLayers(memBefore, memAfter, s.attempted)
	}
	return res, nil
}

// replayLayers times the public layer calls behind one sampled op. Where
// the op is itself a single layer call (PricePipelined, synth.Search) its
// own interval is the layer span.
func (env *planEnv) replayLayers(rec *spanRecorder, parent, id int, op *planOp) {
	switch op.kind {
	case pPlan:
		layout := env.layouts[op.layout]
		rec.call("hwdisc.discover", parent, id, func() {
			hwdisc.Discover(env.gpc, layout, hwdisc.DefaultCostModel()) //nolint:errcheck — timing only; the op itself was verified
		})
		rec.call("topology.distances", parent, id, func() {
			topology.NewDistances(env.gpc, layout) //nolint:errcheck
		})
	case pSpeedup:
		s, err := sched.ForPattern(op.pattern, len(env.layouts[op.layout]))
		if err != nil {
			return
		}
		prog, err := sched.CompileCached(s)
		if err != nil {
			return
		}
		rec.call("simnet.price_program", parent, id, func() {
			env.machine.PriceProgram(prog, env.layouts[op.layout], op.size) //nolint:errcheck
		})
	case pPipelined:
		rec.alias("simnet.price_pipeline", parent, id)
	case pSynth:
		rec.alias("synth.search", parent, id)
	}
}
