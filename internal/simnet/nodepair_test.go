package simnet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

// TestColdPricingAllocs bounds what a first ProfileSchedule on a fresh
// machine allocates: at most the bytes recorded before the walk priced per
// node pair (go1.24, linux/amd64, block-bunch layout) plus 16 B per rank
// (the per-rank node and socket slices) plus 16 KiB (the node heads and the
// stage's pair list). The cases are the three heaviest GPC shapes of mapd's
// cold path and the fattree-256 all-to-all. A scratch that grew per
// interned route or per transfer would exceed the slack on these shapes.
func TestColdPricingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates")
	}
	fat256, err := topology.NewCluster(32, 2, 4, topology.TwoLevelFatTree(4, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		c      *topology.Cluster
		build  func(int) (*sched.Schedule, error)
		p      int
		before uint64
	}{
		{"gpc/recursive-doubling", topology.GPC(), sched.RecursiveDoubling, 4096, 1829376},
		{"gpc/binomial-gather", topology.GPC(), sched.BinomialGather, 4096, 382544},
		{"gpc/ring", topology.GPC(), sched.Ring, 4096, 607720},
		{"fattree-256/alltoall", fat256, sched.PairwiseAlltoall, 256, 229944},
	}
	for _, tc := range cases {
		s, err := tc.build(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		layout := topology.MustLayout(tc.c, tc.p, topology.BlockBunch)
		m, err := NewMachine(tc.c, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.ProfileSchedule(context.Background(), s, layout); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		limit := tc.before + 16*uint64(tc.p) + 16<<10
		t.Logf("%s: first ProfileSchedule allocated %d B (recorded %d, limit %d)", tc.name, got, tc.before, limit)
		if got > limit {
			t.Errorf("%s: first ProfileSchedule allocated %d B, want at most %d (recorded %d + 16 B/rank + 16 KiB)", tc.name, got, limit, tc.before)
		}
	}
}

// shuffledLayout places n ranks on the cores of n/CoresPerNode randomly
// chosen nodes, in a random order: every node hosts ranks whose partners sit
// on several other nodes, so a stage's transfers share node pairs in both
// directions and a source node chains more than one pair.
func shuffledLayout(rng *rand.Rand, c *topology.Cluster, n int) []int {
	per := c.CoresPerNode()
	layout := make([]int, 0, n)
	for _, node := range rng.Perm(c.Nodes)[:n/per] {
		for k := 0; k < per; k++ {
			layout = append(layout, node*per+k)
		}
	}
	rng.Shuffle(len(layout), func(i, j int) { layout[i], layout[j] = layout[j], layout[i] })
	return layout
}

// TestNodePairPricingMatchesDense pins the node-pair grouping to the dense
// reference, which walks every transfer's route on its own: each transfer's
// time at two sizes compares with ==, and MaxStageLinkLoads with the dense
// loads' per-stage maximum. The layouts are shuffled so pairs carry several
// transfers and chains run longer than one; the test checks that they did.
func TestNodePairPricingMatchesDense(t *testing.T) {
	mk := func(c *topology.Cluster, err error) *Machine {
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(c, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	gpc := mk(topology.GPC(), nil)
	machines := []struct {
		name  string
		m     *Machine
		p     int
		ranks int // layout length; > p leaves ranks the schedule never names
	}{
		{"gpc", gpc, 256, 256},
		{"torus-linkmult2", mk(topology.NewCluster(64, 2, 4, &topology.Torus3D{X: 4, Y: 4, Z: 4, LinkMult: 2})), 256, 256},
		{"uniform", mk(topology.NewCluster(16, 2, 4, nil)), 64, 64},
		{"gpc-long-layout", gpc, 128, 512},
	}
	builders := map[string]func(int) (*sched.Schedule, error){
		"alltoall":           sched.PairwiseAlltoall,
		"recursive-doubling": sched.RecursiveDoubling,
		"binomial-gather":    sched.BinomialGather,
	}
	maxCount, maxChain := int32(0), 0
	for _, mc := range machines {
		m := mc.m
		for seed := int64(1); seed <= 2; seed++ {
			layout := shuffledLayout(rand.New(rand.NewSource(seed)), m.Cluster, mc.ranks)
			for bname, build := range builders {
				s, err := build(mc.p)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/seed%d/%s", mc.name, seed, bname)
				var lines []costLine
				var denseMax []int
				err = m.walk(context.Background(), s, layout, 1, func(l costLine) { lines = append(lines, l) }, func(sc *priceScratch, si int, st *sched.Stage) error {
					for k := range sc.pairs {
						maxCount = max(maxCount, sc.pairs[k].count)
						chain := 0
						for j := int32(k); j >= 0; j = sc.pairs[j].next {
							chain++
						}
						maxChain = max(maxChain, chain)
					}
					loads := newStageLoads()
					m.aggregateLoads(st.Transfers, layout, loads)
					worst := 0
					for _, n := range loads.netLinks {
						worst = max(worst, n)
					}
					denseMax = append(denseMax, worst)
					var routeBuf []topology.DirLink
					for ti := range st.Transfers {
						for _, b := range []int{64, 64 << 10} {
							want, err := m.transferTimeDense(&st.Transfers[ti], layout, b, loads, &routeBuf)
							if err != nil {
								return err
							}
							if got := lines[ti].seconds(float64(b)); got != want {
								t.Errorf("%s stage %d transfer %d at %d B: %.17g, dense %.17g", name, si, ti, b, got, want)
							}
						}
					}
					lines = lines[:0]
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.Cluster.Net == nil {
					continue
				}
				prog, err := sched.Compile(s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.MaxStageLinkLoads(prog, layout)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, denseMax) {
					t.Errorf("%s: MaxStageLinkLoads %v, dense %v", name, got, denseMax)
				}
			}
		}
	}
	if maxCount < 2 || maxChain < 2 {
		t.Errorf("largest pair carried %d transfers and longest chain held %d pairs, want both > 1", maxCount, maxChain)
	}
}

// TestPricingEpochWraparound drives a machine's scratch epoch across 2³² at
// several offsets and checks every profile against a fresh machine's. Before
// each wrap a one-stage ring stamps every node's pair head at epoch 2, the
// epoch the first stage after a wrap at offset 0 takes again, so a stamp
// the wrap did not clear aliases it.
func TestPricingEpochWraparound(t *testing.T) {
	fresh := gpcMachine(t)
	rng := rand.New(rand.NewSource(3))
	const p = 128
	layout := shuffledLayout(rng, fresh.Cluster, p)
	ring, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*sched.Schedule
	for _, build := range []func(int) (*sched.Schedule, error){sched.RecursiveDoubling, sched.PairwiseAlltoall, sched.BinomialGather} {
		s, err := build(p)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, s)
	}
	for _, left := range []uint32{0, 1, 2, 5, 40} {
		m := gpcMachine(t)
		if _, err := m.ProfileSchedule(context.Background(), ring, layout); err != nil {
			t.Fatal(err)
		}
		sc := m.getScratch()
		sc.epoch = math.MaxUint32 - left
		m.scratch.Store(sc)
		for _, s := range jobs {
			got, err := m.ProfileSchedule(context.Background(), s, layout)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ProfileSchedule(context.Background(), s, layout)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d epochs before the wrap: profile differs from a fresh machine's", s.Name, left)
			}
		}
		if sc := m.scratch.Load(); sc.epoch > 1<<20 {
			t.Fatalf("epoch %d: the wrap did not happen", sc.epoch)
		}
	}
}
