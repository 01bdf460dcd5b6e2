package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// distancesFor builds the slot-indexed distance matrix for p processes under
// the given layout kind on cluster c.
func distancesFor(t testing.TB, c *topology.Cluster, p int, k topology.LayoutKind) *topology.Distances {
	t.Helper()
	layout, err := topology.Layout(c, p, k)
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	d, err := topology.NewDistances(c, layout)
	if err != nil {
		t.Fatalf("NewDistances: %v", err)
	}
	return d
}

func testCluster() *topology.Cluster {
	c, err := topology.NewCluster(8, 2, 4, topology.TwoLevelFatTree(2, 4, 2))
	if err != nil {
		panic(err)
	}
	return c
}

var allHeuristics = map[string]Heuristic{
	"RDMH": RDMH,
	"RMH":  RMH,
	"BBMH": BBMH,
	"BGMH": BGMH,
}

func TestHeuristicsProducePermutations(t *testing.T) {
	c := testCluster()
	for name, h := range allHeuristics {
		for _, p := range []int{1, 2, 3, 4, 5, 8, 12, 16, 31, 32, 64} {
			for _, k := range topology.AllLayouts {
				d := distancesFor(t, c, p, k)
				m, err := h(d, nil)
				if err != nil {
					t.Fatalf("%s(p=%d,%v): %v", name, p, k, err)
				}
				if err := m.Validate(); err != nil {
					t.Errorf("%s(p=%d,%v): invalid mapping: %v", name, p, k, err)
				}
				if m[0] != 0 {
					t.Errorf("%s(p=%d,%v): rank 0 not fixed on its core (M[0]=%d)", name, p, k, m[0])
				}
			}
		}
	}
}

func TestHeuristicsRejectEmptyMatrix(t *testing.T) {
	empty := &topology.Distances{}
	for name, h := range allHeuristics {
		if _, err := h(empty, nil); err == nil {
			t.Errorf("%s accepted empty distance matrix", name)
		}
	}
}

func TestRMHIdentityOnBlockBunch(t *testing.T) {
	// Goal 2 of the paper: an initial layout that already matches the
	// pattern must not be disturbed. Block-bunch is the ideal ring layout.
	c := testCluster()
	d := distancesFor(t, c, 64, topology.BlockBunch)
	m, err := RMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsIdentity() {
		t.Errorf("RMH on block-bunch is not the identity: %v", m[:16])
	}
}

func TestRMHRepairsCyclic(t *testing.T) {
	// Under a cyclic layout, ring neighbours sit on different nodes. RMH
	// must bring consecutive new ranks physically together.
	c := testCluster()
	p := 64
	d := distancesFor(t, c, p, topology.CyclicBunch)
	m, err := RMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	identity, mapped := ringCost(d, Identity(p)), ringCost(d, m)
	if mapped >= identity {
		t.Errorf("RMH did not improve ring cost: identity=%d mapped=%d", identity, mapped)
	}
	// With 8 cores per node and 8 nodes, at most 8 of the 64 ring hops can
	// cross nodes in an ideal mapping.
	crossings := 0
	for r := 0; r < p; r++ {
		a, b := d.Cores[m[r]], d.Cores[m[(r+1)%p]]
		if c.NodeOf(a) != c.NodeOf(b) {
			crossings++
		}
	}
	if crossings > 8 {
		t.Errorf("RMH mapping has %d inter-node ring hops, want <= 8", crossings)
	}
}

// ringCost is the distance-weighted ring pattern cost.
func ringCost(d *topology.Distances, m Mapping) int64 {
	var sum int64
	p := len(m)
	for r := 0; r < p; r++ {
		sum += int64(d.At(m[r], m[(r+1)%p]))
	}
	return sum
}

// rdCost is the recursive-doubling cost with stage-weighted edges: stage s
// carries 2^s units.
func rdCost(d *topology.Distances, m Mapping) int64 {
	var sum int64
	p := len(m)
	for i := 1; i < p; i <<= 1 {
		for r := 0; r < p; r++ {
			if r^i < p && r < r^i {
				sum += int64(i) * int64(d.At(m[r], m[r^i]))
			}
		}
	}
	return sum
}

// binomialTreeEdges invokes fn(parent, child, weight) for every edge of the
// binomial tree on p ranks rooted at 0; weight is the subtree size of child
// (the gather message volume on that edge).
func binomialTreeEdges(p int, fn func(parent, child, weight int)) {
	var rec func(r, span int)
	rec = func(r, span int) {
		for i := 1; i < span; i <<= 1 {
			child := r + i
			if child >= p {
				break
			}
			w := i
			if child+w > p {
				w = p - child
			}
			fn(r, child, w)
			rec(child, i)
		}
	}
	span := 1
	for span < p {
		span <<= 1
	}
	rec(0, span)
}

func bcastCost(d *topology.Distances, m Mapping) int64 {
	var sum int64
	binomialTreeEdges(len(m), func(parent, child, _ int) {
		sum += int64(d.At(m[parent], m[child]))
	})
	return sum
}

func gatherCost(d *topology.Distances, m Mapping) int64 {
	var sum int64
	binomialTreeEdges(len(m), func(parent, child, w int) {
		sum += int64(w) * int64(d.At(m[parent], m[child]))
	})
	return sum
}

func TestHeuristicsNeverDegradePatternCost(t *testing.T) {
	// Goals 1 and 2 of Section I: repair bad layouts, never hurt good ones,
	// measured with the pattern-specific distance-weighted cost.
	c := testCluster()
	costs := map[string]func(*topology.Distances, Mapping) int64{
		"RDMH": rdCost, "RMH": ringCost, "BBMH": bcastCost, "BGMH": gatherCost,
	}
	for name, h := range allHeuristics {
		cost := costs[name]
		for _, p := range []int{8, 16, 32, 64} {
			for _, k := range topology.AllLayouts {
				d := distancesFor(t, c, p, k)
				m, err := h(d, nil)
				if err != nil {
					t.Fatal(err)
				}
				before, after := cost(d, Identity(p)), cost(d, m)
				if after > before {
					t.Errorf("%s(p=%d,%v): cost degraded %d -> %d", name, p, k, before, after)
				}
			}
		}
	}
}

func TestRDMHPlacesLastStagePartnerClose(t *testing.T) {
	// With block-bunch, rank p/2 (rank 0's last-stage partner) initially
	// sits on another node; RDMH must pull it next to rank 0.
	c := testCluster()
	p := 64
	d := distancesFor(t, c, p, topology.BlockBunch)
	m, err := RDMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.At(m[0], m[p/2]); got != 1 {
		t.Errorf("distance(new rank 0, new rank %d) = %d, want 1 (same socket)", p/2, got)
	}
	if got := d.At(m[0], m[p/4]); got > 2 {
		t.Errorf("distance(new rank 0, new rank %d) = %d, want <= 2 (same node)", p/4, got)
	}
}

func TestBBMHMapsChildrenNearParents(t *testing.T) {
	c := testCluster()
	p := 64
	d := distancesFor(t, c, p, topology.CyclicScatter)
	m, err := BBMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1, the first-visited child of the root, must land adjacent.
	if got := d.At(m[0], m[1]); got != 1 {
		t.Errorf("distance(root, rank 1) = %d, want 1", got)
	}
}

func TestBGMHHeaviestEdgeFirst(t *testing.T) {
	c := testCluster()
	p := 64
	d := distancesFor(t, c, p, topology.CyclicBunch)
	m, err := BGMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The heaviest gather edge (0, p/2) is mapped first and must be as
	// close as the topology allows.
	if got := d.At(m[0], m[p/2]); got != 1 {
		t.Errorf("distance(root, rank %d) = %d, want 1", p/2, got)
	}
}

func TestMappingApply(t *testing.T) {
	layout := []int{10, 20, 30, 40}
	m := Mapping{2, 0, 3, 1}
	got, err := m.Apply(layout)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{30, 10, 40, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Apply = %v, want %v", got, want)
		}
	}
	if _, err := m.Apply(layout[:2]); err == nil {
		t.Error("Apply accepted mismatched layout length")
	}
	if _, err := (Mapping{5, 0}).Apply([]int{1, 2}); err == nil {
		t.Error("Apply accepted out-of-range slot")
	}
}

func TestMappingNewRankOf(t *testing.T) {
	m := Mapping{2, 0, 3, 1}
	inv := m.NewRankOf()
	for newRank, slot := range m {
		if inv[slot] != newRank {
			t.Fatalf("NewRankOf()[%d] = %d, want %d", slot, inv[slot], newRank)
		}
	}
}

func TestMappingValidate(t *testing.T) {
	if err := (Mapping{0, 1, 2}).Validate(); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	if err := (Mapping{0, 0, 2}).Validate(); err == nil {
		t.Error("duplicate slot accepted")
	}
	if err := (Mapping{0, 3}).Validate(); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := (Mapping{-1, 0}).Validate(); err == nil {
		t.Error("negative slot accepted")
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(5)
	if !m.IsIdentity() {
		t.Error("Identity not identity")
	}
	if (Mapping{1, 0}).IsIdentity() {
		t.Error("swap reported as identity")
	}
}

func TestRandomTieBreakStillValid(t *testing.T) {
	c := testCluster()
	d := distancesFor(t, c, 32, topology.BlockScatter)
	for name, h := range allHeuristics {
		for seed := int64(0); seed < 5; seed++ {
			opts := &Options{Rand: rand.New(rand.NewSource(seed))}
			m, err := h(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Errorf("%s(seed=%d): %v", name, seed, err)
			}
		}
	}
}

func TestRandomTieBreakNeverDegrades(t *testing.T) {
	// Greedy placement is path-dependent, so different tie-breaks may land
	// on slightly different costs — but any tie-break must still repair the
	// poor initial layout rather than worsen it.
	c := testCluster()
	d := distancesFor(t, c, 64, topology.CyclicScatter)
	for name, h := range allHeuristics {
		cost := map[string]func(*topology.Distances, Mapping) int64{
			"RDMH": rdCost, "RMH": ringCost, "BBMH": bcastCost, "BGMH": gatherCost,
		}[name]
		before := cost(d, Identity(64))
		for seed := int64(0); seed < 4; seed++ {
			m, err := h(d, &Options{Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				t.Fatal(err)
			}
			if after := cost(d, m); after > before {
				t.Errorf("%s(seed=%d): cost degraded %d -> %d", name, seed, before, after)
			}
		}
	}
}

func TestHeuristicsPermutationProperty(t *testing.T) {
	// Property: for arbitrary (small) cluster shapes and process counts,
	// every heuristic emits a permutation fixing rank 0.
	c := testCluster()
	prop := func(pRaw uint8, kindRaw uint8) bool {
		p := int(pRaw)%63 + 1
		k := topology.AllLayouts[int(kindRaw)%len(topology.AllLayouts)]
		layout, err := topology.Layout(c, p, k)
		if err != nil {
			return false
		}
		d, err := topology.NewDistances(c, layout)
		if err != nil {
			return false
		}
		for _, h := range allHeuristics {
			m, err := h(d, nil)
			if err != nil || m.Validate() != nil || m[0] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPatternString(t *testing.T) {
	want := map[Pattern]string{
		RecursiveDoubling: "recursive-doubling",
		Ring:              "ring",
		BinomialBroadcast: "binomial-broadcast",
		BinomialGather:    "binomial-gather",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%v.String() = %q, want %q", uint8(p), p.String(), s)
		}
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern should format")
	}
}

func TestPatternHeuristic(t *testing.T) {
	c := testCluster()
	d := distancesFor(t, c, 16, topology.BlockBunch)
	for _, p := range Patterns {
		h := p.Heuristic()
		if h == nil {
			t.Fatalf("%v has no heuristic", p)
		}
		m, err := h(d, nil)
		if err != nil || m.Validate() != nil {
			t.Errorf("%v heuristic failed: %v", p, err)
		}
	}
	if Pattern(99).Heuristic() != nil {
		t.Error("unknown pattern returned a heuristic")
	}
}

func TestPrevPow2(t *testing.T) {
	cases := map[int]int{
		0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 4, 7: 4, 8: 4, 9: 8, 12: 8, 16: 8, 17: 16,
		1023: 512, 1024: 512, 4096: 2048,
	}
	for p, want := range cases {
		if got := prevPow2(p); got != want {
			t.Errorf("prevPow2(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestRDMHNonPowerOfTwoTotal(t *testing.T) {
	c := testCluster()
	for _, p := range []int{3, 5, 6, 7, 9, 12, 24, 48, 63} {
		d := distancesFor(t, c, p, topology.CyclicBunch)
		m, err := RDMH(d, nil)
		if err != nil {
			t.Fatalf("RDMH(p=%d): %v", p, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("RDMH(p=%d): %v", p, err)
		}
	}
}

func TestSingleProcess(t *testing.T) {
	c := topology.SingleNode(1, 1)
	d, err := topology.NewDistances(c, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range allHeuristics {
		m, err := h(d, nil)
		if err != nil || len(m) != 1 || m[0] != 0 {
			t.Errorf("%s(p=1) = %v, %v", name, m, err)
		}
	}
}

func BenchmarkRDMH4096(b *testing.B) {
	c := topology.GPC()
	layout := topology.MustLayout(c, 4096, topology.CyclicBunch)
	d, err := topology.NewDistances(c, layout)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RDMH(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}
