package synth

import (
	"math"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func fatTree64(t testing.TB) *simnet.Machine {
	t.Helper()
	c, err := topology.NewCluster(8, 2, 4, topology.TwoLevelFatTree(2, 4, 2))
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	m, err := simnet.NewMachine(c, simnet.DefaultParams())
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

func gpcMachine(t testing.TB) *simnet.Machine {
	t.Helper()
	m, err := simnet.NewMachine(topology.GPC(), simnet.DefaultParams())
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

// TestSearchAllFamilies runs one search per family on a small machine and
// checks the structural invariants: a best candidate exists, the baseline is
// priced, every pareto member verifies, and the front is strictly improving
// in both coordinates.
func TestSearchAllFamilies(t *testing.T) {
	m := fatTree64(t)
	for _, f := range []Family{Allgather, Allreduce, Broadcast, Gather, Scatter} {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			payload := 4096
			if f == Allreduce || f == Broadcast {
				payload = 16 * 4096 // divisible by any block count up to p
			}
			res, err := Search(m, nil, f, 16, payload, Options{})
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			if res.Best == nil {
				t.Fatal("no best candidate survived")
			}
			if res.Baseline == nil || res.Baseline.Price <= 0 {
				t.Fatalf("baseline missing or unpriced: %+v", res.Baseline)
			}
			if res.Best.Price > res.Baseline.Price {
				t.Errorf("best %s prices %.3gs, worse than baseline %s at %.3gs",
					res.Best.Recipe, res.Best.Price, res.Baseline.Recipe, res.Baseline.Price)
			}
			if len(res.Pareto) == 0 {
				t.Fatal("empty pareto front")
			}
			prevLat, prevPrice := -1.0, math.Inf(1)
			for _, c := range res.Pareto {
				if err := f.Verify(c.Schedule); err != nil {
					t.Errorf("pareto member %s fails verify: %v", c.Recipe, err)
				}
				if c.LatPrice < prevLat || c.Price >= prevPrice {
					t.Errorf("pareto front not strictly improving at %s (lat %g price %g after lat %g price %g)",
						c.Recipe, c.LatPrice, c.Price, prevLat, prevPrice)
				}
				prevLat, prevPrice = c.LatPrice, c.Price
			}
			if res.Explored <= 0 {
				t.Error("search explored nothing")
			}
		})
	}
}

// TestSearchBeatsBaselineFatTree pins the acceptance point: on the 64-rank
// fat tree at 2 KiB blocks the hand-coded allgather selection picks ring
// (63 latency-bound inter-node stages), while the searcher finds a schedule
// that prices strictly better — this exact point feeds the end-to-end table
// test in package collective.
func TestSearchBeatsBaselineFatTree(t *testing.T) {
	m := fatTree64(t)
	res, err := Search(m, nil, Allgather, 64, 2048, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if res.Baseline.Recipe.Alg != "ring" {
		t.Fatalf("expected ring baseline for 2 KiB allgather, got %s", res.Baseline.Recipe)
	}
	if res.Best.Price >= res.Baseline.Price {
		t.Fatalf("no strict win: best %s at %.3gs vs baseline ring at %.3gs",
			res.Best.Recipe, res.Best.Price, res.Baseline.Price)
	}
	t.Logf("best %s: %.4gs vs ring %.4gs (%.0f%% win, %d explored, %d/%d/%d pruned v/b/s)",
		res.Best.Recipe, res.Best.Price, res.Baseline.Price, 100*res.Improvement(),
		res.Explored, res.PrunedVerify, res.PrunedBound, res.PrunedShape)
}

// TestSearchLargeRankCounts exercises the searcher at the scales the bench
// suite and the GPC experiments use.
func TestSearchLargeRankCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("large-p search in -short mode")
	}
	m := gpcMachine(t)
	for _, p := range []int{256, 1024} {
		res, err := Search(m, nil, Allgather, p, 2048, Options{})
		if err != nil {
			t.Fatalf("Search p=%d: %v", p, err)
		}
		if res.Best == nil || res.Best.Price > res.Baseline.Price {
			t.Fatalf("p=%d: best did not match baseline: %+v", p, res.Best)
		}
	}
	// At small payloads the hierarchical seeds set a tight incumbent and the
	// dominance bound drops the stage-heavy flat algorithms unpriced.
	res, err := Search(m, nil, Allgather, 1024, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedBound == 0 {
		t.Error("expected the lower bound to prune at p=1024, 64B; it priced everything")
	}
}

// TestSearchDeterministic: two identical searches return the same winner,
// the same pareto fingerprint sequence, and the same counters.
func TestSearchDeterministic(t *testing.T) {
	m := fatTree64(t)
	a, err := Search(m, nil, Allgather, 64, 2048, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(m, nil, Allgather, 64, 2048, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Fingerprint != b.Best.Fingerprint {
		t.Errorf("winner differs across identical searches: %s vs %s", a.Best.Recipe, b.Best.Recipe)
	}
	if len(a.Pareto) != len(b.Pareto) {
		t.Fatalf("pareto sizes differ: %d vs %d", len(a.Pareto), len(b.Pareto))
	}
	for i := range a.Pareto {
		if a.Pareto[i].Fingerprint != b.Pareto[i].Fingerprint {
			t.Errorf("pareto[%d] differs: %s vs %s", i, a.Pareto[i].Recipe, b.Pareto[i].Recipe)
		}
	}
	if a.Explored != b.Explored || a.PrunedVerify != b.PrunedVerify || a.PrunedBound != b.PrunedBound {
		t.Errorf("counters differ: %+v vs %+v", a, b)
	}
}

// TestSearchPipelinedBroadcastOnPareto is the pipelining-operator satellite:
// at bulk payloads the chain pipeline moves every byte once per rank in
// chunk-sized stages, undercutting both the binomial tree (log2(p) serialised
// full-payload hops) and scatter+allgather (~2x the payload on the wire), so
// a pipelined recipe must survive to the pareto front — and at this size it
// should price strictly below the unpipelined binomial baseline.
func TestSearchPipelinedBroadcastOnPareto(t *testing.T) {
	m := fatTree64(t)
	res, err := Search(m, nil, Broadcast, 64, 16<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pipelined *Candidate
	for _, c := range res.Pareto {
		if c.Recipe.Alg == "pipelined" {
			pipelined = c
			break
		}
	}
	if pipelined == nil {
		recipes := make([]string, len(res.Pareto))
		for i, c := range res.Pareto {
			recipes[i] = c.Recipe.String()
		}
		t.Fatalf("no pipelined recipe on the pareto front at 1 MiB: %v", recipes)
	}
	if res.Baseline.Recipe.Alg == "binomial-broadcast" && pipelined.Price >= res.Baseline.Price {
		t.Errorf("pipelined %s prices %.3gs, not below binomial baseline %.3gs",
			pipelined.Recipe, pipelined.Price, res.Baseline.Price)
	}
	t.Logf("pipelined %s: %.4gs vs baseline %s %.4gs",
		pipelined.Recipe, pipelined.Price, res.Baseline.Recipe, res.Baseline.Price)
}

// TestSearchTorusAlltoall: searching the all-to-all family on a 64-rank 2-D
// torus at a 1 KiB per-pair payload must surface the torus-native
// round-robin schedule as the winner — the selection-table path the mapd
// front door serves from.
func TestSearchTorusAlltoall(t *testing.T) {
	c, err := topology.NewCluster(64, 1, 1, topology.NewTorus3D(8, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := simnet.NewMachine(c, simnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(m, nil, Alltoall, 64, 64*1024, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best candidate")
	}
	if res.Best.Recipe.Alg != "torus-native" {
		t.Fatalf("expected torus-native winner on the torus, got %s (%.3gs) vs baseline %s (%.3gs)",
			res.Best.Recipe, res.Best.Price, res.Baseline.Recipe, res.Baseline.Price)
	}
	if res.Best.Price >= res.Baseline.Price {
		t.Errorf("torus-native %.3gs not below baseline %s %.3gs",
			res.Best.Price, res.Baseline.Recipe, res.Baseline.Price)
	}
}

// TestSearchAllreduceVerifyGate: every allreduce pareto member satisfies the
// contribution-tracking verify contract (each rank's value absorbed exactly
// once), at a p small enough for the O(p^2 blocks) replay.
func TestSearchAllreduceVerifyGate(t *testing.T) {
	m := fatTree64(t)
	res, err := Search(m, nil, Allreduce, 64, 64*512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Pareto {
		if err := c.Schedule.VerifyAllreduce(); err != nil {
			t.Errorf("%s: %v", c.Recipe, err)
		}
	}
}

// TestEvaluatePricesMatchMachinePrice pins the searcher's one-profile
// pricing to the model's front door: for every candidate a fat-tree and a
// torus search emit, both prices read off the candidate's contention profile
// equal Machine.Price of the same schedule bit for bit, and the recipe
// re-materialises to the fingerprint the search recorded (what a persisted
// table entry is checked against).
func TestEvaluatePricesMatchMachinePrice(t *testing.T) {
	torus, err := topology.NewCluster(64, 1, 1, topology.NewTorus3D(8, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	torusM, err := simnet.NewMachine(torus, simnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		m       *simnet.Machine
		f       Family
		payload int
	}{
		{"fattree/allgather", fatTree64(t), Allgather, 2048},
		{"fattree/allreduce", fatTree64(t), Allreduce, 64 * 512},
		{"torus/alltoall", torusM, Alltoall, 64 * 1024},
	} {
		const p = 64
		res, err := Search(tc.m, nil, tc.f, p, tc.payload, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		layout := make([]int, p)
		for r := range layout {
			layout[r] = r
		}
		for _, c := range append([]*Candidate{res.Best, res.Baseline}, res.Pareto...) {
			blockBytes, err := tc.f.BlockBytes(c.Schedule, tc.payload)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, c.Recipe, err)
			}
			if want, err := tc.m.Price(c.Schedule, layout, blockBytes); err != nil || c.Price != want {
				t.Errorf("%s %s: Price %v, Machine.Price %v (err %v)", tc.name, c.Recipe, c.Price, want, err)
			}
			if want, err := tc.m.Price(c.Schedule, layout, 1); err != nil || c.LatPrice != want {
				t.Errorf("%s %s: LatPrice %v, Machine.Price at 1 byte %v (err %v)", tc.name, c.Recipe, c.LatPrice, want, err)
			}
			re, err := c.Recipe.Materialize(tc.f, p)
			if err != nil {
				t.Fatalf("%s: re-materialise %s: %v", tc.name, c.Recipe, err)
			}
			if fp := sched.Fingerprint(re); fp != c.Fingerprint {
				t.Errorf("%s %s: re-materialised fingerprint %s != emitted %s", tc.name, c.Recipe, fp, c.Fingerprint)
			}
		}
	}
}

// TestDerivedMutantsMatchMaterialize: a search derives each stage-op mutant
// from its parent's schedule instead of materialising its recipe. For every
// family at 2 KiB and 256 KiB on the 64-rank fat tree, every candidate the
// search keeps is the schedule its recipe materialises from scratch (same
// fingerprint), and so is every stage-op mutant of the final beam, refusals
// included; deriving leaves every parent's schedule as it was.
func TestDerivedMutantsMatchMaterialize(t *testing.T) {
	m := fatTree64(t)
	derived := 0
	for _, f := range Families() {
		for _, payload := range []int{2 << 10, 256 << 10} {
			s, err := newSearcher(m, nil, f, 64, payload, Options{})
			if err == nil {
				_, err = s.run(time.Now())
			}
			if err != nil {
				t.Fatalf("%v @ %d B: %v", f, payload, err)
			}
			for _, c := range s.topK(s.opt.BeamWidth) {
				_, ops := s.mutations(c)
				for _, op := range ops {
					r := withOp(c.Recipe, op)
					got, gotErr := withStageOp(c.Schedule, op)
					want, wantErr := r.Materialize(f, 64)
					if (gotErr == nil) != (wantErr == nil) {
						t.Errorf("%v @ %d B: %s derived err %v, materialised err %v", f, payload, r, gotErr, wantErr)
					} else if gotErr == nil && sched.Fingerprint(got) != sched.Fingerprint(want) {
						t.Errorf("%v @ %d B: %s derived from its parent differs from its materialisation", f, payload, r)
					}
					derived++
				}
			}
			for _, c := range s.cands {
				re, err := c.Recipe.Materialize(f, 64)
				if err != nil || sched.Fingerprint(re) != c.Fingerprint || sched.Fingerprint(c.Schedule) != c.Fingerprint {
					t.Errorf("%v @ %d B: candidate %s is not its recipe's schedule, or deriving changed it (err %v)", f, payload, c.Recipe, err)
				}
			}
		}
	}
	if derived == 0 {
		t.Error("no search derived a mutant")
	}
}

// TestStageOpsPreserveOrFail: applying each stage operator at every index of
// a ring schedule either errors (does not apply) or yields a schedule whose
// verify outcome is decided by the family contract — never a panic and never
// a silently-wrong success path (verified schedules must still verify after
// a fingerprint round trip).
func TestStageOpsPreserveOrFail(t *testing.T) {
	for _, alg := range []string{"ring", "bruck", "recursive-doubling"} {
		base := Recipe{Alg: alg}
		s, err := base.Materialize(Allgather, 16)
		if err != nil {
			t.Fatal(err)
		}
		n := len(s.Stages)
		for _, op := range []string{"swap", "merge", "split"} {
			for i := 0; i < n; i++ {
				r := Recipe{Alg: alg, Ops: []StageOp{{Op: op, Stage: i}}}
				mut, err := r.Materialize(Allgather, 16)
				if err != nil {
					continue // operator does not apply at this index
				}
				if err := mut.VerifyAllgather(); err != nil {
					continue // correctly rejected by the oracle
				}
				// Survivors must have a distinct, stable fingerprint.
				fp := sched.Fingerprint(mut)
				again, err := r.Materialize(Allgather, 16)
				if err != nil {
					t.Fatalf("%s %s@%d: second materialise failed: %v", alg, op, i, err)
				}
				if sched.Fingerprint(again) != fp {
					t.Errorf("%s %s@%d: fingerprint not stable", alg, op, i)
				}
			}
		}
	}
}
