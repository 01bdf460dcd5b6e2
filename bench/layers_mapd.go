package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/patterns"
	"repro/internal/sched"
	"repro/internal/scotch"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/topology"
)

// Layer replay for the mapd workloads: the benchmark calls the public
// functions of the layers a request passes through inside mapd, itself, on a
// ninth of the workload's own inputs, one span per call. Nothing inside the
// program is instrumented; these are outside timings of its packages.

// clusterOf builds the cluster a topology spec names, with the packages'
// public constructors.
func clusterOf(spec *service.TopologySpec) (*topology.Cluster, error) {
	if spec.Preset == "gpc" {
		return topology.GPC(), nil
	}
	var net topology.Network
	if n := spec.Network; n != nil {
		switch n.Kind {
		case "fattree":
			net = topology.TwoLevelFatTree(n.Leaves, n.NodesPerLeaf, n.Uplinks)
		case "torus":
			net = topology.NewTorus3D(n.X, n.Y, n.Z)
		}
	}
	return topology.NewCluster(spec.Nodes, spec.SocketsPerNode, spec.CoresPerSocket, net)
}

// graphOf materialises a CSR spec the way the service does: each
// undirected edge once, from its lower endpoint.
func graphOf(spec *service.GraphSpec) (*graph.Graph, error) {
	g := graph.New(spec.N)
	for u := 0; u < spec.N; u++ {
		for e := spec.XAdj[u]; e < spec.XAdj[u+1]; e++ {
			if v := spec.Adjncy[e]; v > u {
				if err := g.AddEdge(u, v, spec.Weights[e]); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

var oracleHeuristics = map[string]core.OracleHeuristic{
	"rdmh": core.RDMHOracle, "rmh": core.RMHOracle, "bbmh": core.BBMHOracle,
	"bgmh": core.BGMHOracle, "bkmh": core.BKMHOracle,
}

var mapdReplayMetrics = map[string]layerUnit{
	"topology.build":       msMetric("topology.build_ms"),
	"topology.fingerprint": msMetric("topology.fingerprint_ms"),
	"topology.hierarchy":   msMetric("topology.hierarchy_ms"),
	"core.map.rdmh":        msMetric("core.map_ms.rdmh"),
	"core.map.rmh":         msMetric("core.map_ms.rmh"),
	"core.map.bbmh":        msMetric("core.map_ms.bbmh"),
	"core.map.bgmh":        msMetric("core.map_ms.bgmh"),
	"core.map.bkmh":        msMetric("core.map_ms.bkmh"),
	"scotch.map":           msMetric("scotch.map_ms"),
	"patterns.build":       msMetric("patterns.build_ms"),
	"sched.build":          msMetric("sched.build_ms"),
	"simnet.machine":       msMetric("simnet.machine_ms"),
	"simnet.profile":       msMetric("simnet.profile_ms"),
	"simnet.profile_price": usMetric("simnet.profile_price_us"),
}

// replaySampled picks the single/graph ops of the cold sequence that layer
// replay runs: every ninth cell of a round's composition, shifted by four
// cells from one round to the next. The choice goes by what an op asks for,
// never by where the seed put it in the sequence, so every seed replays the
// same classes, and the first round alone holds a graph, every pattern and
// "auto" requests (nine shares no factor with the four layouts and five
// patterns the cells cycle through): every declared layer metric is produced
// on every seed. Sampling every tenth op of the seeded order left one seed in
// five without a graph op and so without scotch.map_ms.
func replaySampled(op *mapOp) bool {
	return op.cell.kind != kindBatch && (op.slot+4*op.round)%9 == 0
}

// replayMapdLayers replays the sampled ops of the cold sequence through the
// layers mapd's compute path calls, and reports each layer's median call
// time plus the heuristics' exported work counters.
func replayMapdLayers(cfg *runConfig, res *result, ops []mapOp) {
	rec := newSpanRecorder()
	before := ownMetrics()
	id := 0
	for i := range ops {
		op := &ops[i]
		if !replaySampled(op) {
			continue
		}
		if err := replayMapOp(rec, id, op); err != nil {
			res.check(false, "layer replay of %s: %v", op.cell.class(), err)
			return
		}
		id++
	}
	res.layerMedians(rec, mapdReplayMetrics)
	d := ownMetrics().delta(before)
	maps := d.sum("heuristic_mappings_total")
	res.set("core.placements_per_map", ratio(d.sum("heuristic_placements_total"), maps), "count")
	res.set("core.cost_evals_per_map", ratio(d.sum("heuristic_cost_evaluations_total"), maps), "count")
	cfg.rec.merge(rec)
}

func replayMapOp(rec *spanRecorder, id int, op *mapOp) error {
	t := topologies[op.cell.topo]
	opStart := time.Now()
	var (
		cluster *topology.Cluster
		layout  []int
		oracle  topology.Oracle
		err     error
	)
	root := -1 // children are re-parented once the op span exists
	rec.call("topology.build", root, id, func() {
		cluster, err = clusterOf(&t.spec)
		if err == nil {
			kind, _ := topology.ParseLayoutKind(mapLayouts[op.cell.layout])
			layout, err = topology.Layout(cluster, op.procs, kind)
		}
	})
	if err != nil {
		return err
	}
	rec.call("topology.fingerprint", root, id, func() { cluster.Fingerprint() })
	rec.call("topology.hierarchy", root, id, func() {
		if h, herr := topology.NewHierarchy(cluster, layout); herr == nil {
			oracle = h
		}
	})
	if oracle == nil { // tori: the dense matrix, as in the service
		rec.call("topology.distances", root, id, func() { oracle, err = topology.NewDistances(cluster, layout) })
		if err != nil {
			return err
		}
	}
	ctx := context.Background()
	if op.cell.kind == kindGraph {
		var req service.Request
		if err := json.Unmarshal(op.body, &req); err != nil {
			return err
		}
		g, err := graphOf(req.Pattern.Graph)
		if err != nil {
			return err
		}
		var m core.Mapping
		rec.call("scotch.map", root, id, func() { m, err = scotch.MapContext(ctx, g, oracle, nil) })
		if err == nil {
			err = m.Validate()
		}
		rec.closeOp("replay.map", opStart, time.Now(), id)
		return err
	}

	pat, err := core.ParsePattern(mapPatterns[op.cell.pattern])
	if err != nil {
		return err
	}
	spec, _ := sched.PatternFor(pat)
	names := []string{spec.Heuristic}
	if op.cell.auto || spec.Heuristic == "auto" {
		names = []string{"rdmh", "rmh", "bbmh", "bgmh"}
	}
	var mapping core.Mapping
	for _, name := range names {
		rec.call("core.map."+name, root, id, func() { mapping, err = oracleHeuristics[name](ctx, oracle, nil) })
		if err != nil {
			return err
		}
	}
	// BKMH and the pattern-graph builder are off mapd's default path.
	rec.call("core.map.bkmh", root, id, func() { _, err = core.BKMHOracle(ctx, oracle, nil) })
	if err != nil {
		return err
	}
	if op.procs <= 1024 {
		rec.call("patterns.build", root, id, func() { _, err = patterns.Build(pat, op.procs) })
		if err != nil {
			return err
		}
	}
	var schedule *sched.Schedule
	rec.call("sched.build", root, id, func() {
		schedule, err = sched.ForPattern(pat, op.procs)
		if err == nil && spec.OrderSensitive {
			schedule, err = sched.WithOrderPreservation(schedule, mapping, sched.InitComm)
		}
	})
	if err != nil {
		return err
	}
	var machine *simnet.Machine
	rec.call("simnet.machine", root, id, func() { machine, err = simnet.NewMachine(cluster, simnet.DefaultParams()) })
	if err != nil {
		return err
	}
	prog, err := sched.CompileCached(schedule)
	if err != nil {
		return err
	}
	eff, err := mapping.Apply(layout)
	if err != nil {
		return err
	}
	var prof *simnet.PriceProfile
	rec.call("simnet.profile", root, id, func() { prof, err = machine.Profile(prog, eff) })
	if err != nil {
		return err
	}
	var price float64
	rec.call("simnet.profile_price", root, id, func() { price, err = prof.Price(65536) })
	if err != nil || !(price > 0) {
		return fmt.Errorf("profile price %v: %v", price, err)
	}
	rec.closeOp("replay.map", opStart, time.Now(), id)
	return nil
}

// storeLayers times the store's public calls on a copy of the log the
// child populated: reopen, Get of live keys, Put of same-sized values.
func storeLayers(cfg *runConfig, res *result, inst *mapdInstance) {
	copyPath := filepath.Join(filepath.Dir(inst.proc.storePath), fmt.Sprintf("store-copy-%d.log", os.Getpid()))
	defer os.Remove(copyPath)
	if err := copyFile(inst.proc.storePath, copyPath); err != nil {
		res.check(false, "store layer replay: %v", err)
		return
	}
	rec := newSpanRecorder()
	var st *store.Store
	var err error
	for i := 0; i < 5; i++ {
		if st != nil {
			st.Close()
		}
		rec.call("store.open", -1, i, func() { st, err = store.Open(copyPath) })
		if err != nil {
			res.check(false, "store.Open on the populated log: %v", err)
			return
		}
	}
	defer st.Close()
	stats := st.Stats()
	res.set("store.bytes_per_record", ratio(float64(stats.LiveBytes), float64(stats.Records)), "B")
	keys := st.Keys("")
	var vals [][]byte
	for i := 0; i < len(keys); i += 8 {
		var val []byte
		var ok bool
		rec.call("store.get", -1, i, func() { val, ok = st.Get(keys[i]) })
		if !ok {
			res.check(false, "store.Get(%q) missed on a live key", keys[i])
			return
		}
		vals = append(vals, val)
	}
	for i, val := range vals {
		rec.call("store.put", -1, i, func() { err = st.Put(fmt.Sprintf("bench/put/%d", i), val) })
		if err != nil {
			res.check(false, "store.Put: %v", err)
			return
		}
	}
	res.layerMedians(rec, map[string]layerUnit{
		"store.open": msMetric("store.open_ms"),
		"store.get":  usMetric("store.get_us"),
		"store.put":  usMetric("store.put_us"),
	})
	cfg.rec.merge(rec)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// forwardHopLayer measures what a shard forward adds: the same class of
// request computed locally and computed through a forward, between two
// in-process service.Service shards joined by httptest servers. (A second
// mapd process on a 2-core host would measure the scheduler, not the hop.)
func forwardHopLayer(cfg *runConfig, res *result) {
	a := service.New(service.Config{Shard: &service.ShardConfig{Self: "a"}})
	b := service.New(service.Config{Shard: &service.ShardConfig{Self: "b"}})
	defer a.Close()
	defer b.Close()
	srvA, srvB := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
	defer srvA.Close()
	defer srvB.Close()
	if err := a.SetPeers(map[string]string{"b": srvB.URL}); err != nil {
		res.check(false, "forward hop: %v", err)
		return
	}
	if err := b.SetPeers(map[string]string{"a": srvA.URL}); err != nil {
		res.check(false, "forward hop: %v", err)
		return
	}
	rec := newSpanRecorder()
	ctx := context.Background()
	var local, forwarded []float64
	for i := 0; i < 120; i++ {
		req := &service.Request{
			Topology: topologies[tFat64].spec,
			Pattern:  service.PatternSpec{Name: "ring"},
			Sizes:    []int{1 << 20, 1<<20 + 1 + i},
		}
		var resp *service.Response
		var err error
		d := rec.call("service.compute", -1, i, func() { resp, err = a.Compute(ctx, req) })
		if err != nil || resp.Degraded {
			res.check(false, "forward hop request %d: err=%v", i, err)
			return
		}
		if resp.Shard == "b" {
			forwarded = append(forwarded, ms(d))
		} else {
			local = append(local, ms(d))
		}
	}
	if len(local) < 5 || len(forwarded) < 5 {
		res.check(false, "forward hop: ring split %d local / %d forwarded", len(local), len(forwarded))
		return
	}
	res.set("service.forward_hop_ms", median(forwarded)-median(local), "ms")
	cfg.rec.merge(rec)
}
