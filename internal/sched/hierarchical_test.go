package sched

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// contiguousGroups builds g groups of k consecutive ranks each.
func contiguousGroups(g, k int) [][]int {
	groups := make([][]int, g)
	for i := 0; i < g; i++ {
		for j := 0; j < k; j++ {
			groups[i] = append(groups[i], i*k+j)
		}
	}
	return groups
}

func allHierConfigs() []HierarchicalConfig {
	return []HierarchicalConfig{
		{Linear, InterRecursiveDoubling},
		{Linear, InterRing},
		{NonLinear, InterRecursiveDoubling},
		{NonLinear, InterRing},
	}
}

func TestHierarchicalVerifies(t *testing.T) {
	for _, cfg := range allHierConfigs() {
		for _, shape := range [][2]int{{1, 4}, {2, 4}, {4, 8}, {8, 8}, {16, 4}} {
			groups := contiguousGroups(shape[0], shape[1])
			s, err := Hierarchical(groups, cfg)
			if err != nil {
				t.Fatalf("%v %v: %v", cfg, shape, err)
			}
			if err := s.VerifyAllgather(); err != nil {
				t.Errorf("%v %v: %v", cfg, shape, err)
			}
		}
	}
}

func TestHierarchicalNonContiguousGroups(t *testing.T) {
	// Interleaved groups (a cyclic layout) verify with recursive doubling
	// but are rejected by the ring inter phase.
	groups := [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}}
	s, err := Hierarchical(groups, HierarchicalConfig{NonLinear, InterRecursiveDoubling})
	if err != nil {
		t.Fatalf("rd: %v", err)
	}
	if err := s.VerifyAllgather(); err != nil {
		t.Errorf("rd: %v", err)
	}
	if _, err := Hierarchical(groups, HierarchicalConfig{NonLinear, InterRing}); err == nil {
		t.Error("ring inter accepted non-contiguous groups")
	}
}

func TestHierarchicalPhasedVerifies(t *testing.T) {
	// Each phase sees the same 4x4 partition in its own order: members
	// permuted behind a fixed leader for the trees, nodes permuted for the
	// leader exchange.
	gather := [][]int{{0, 2, 1, 3}, {4, 7, 6, 5}, {8, 9, 11, 10}, {12, 15, 13, 14}}
	bcast := [][]int{{0, 3, 2, 1}, {4, 5, 7, 6}, {8, 11, 10, 9}, {12, 13, 14, 15}}
	plain := contiguousGroups(4, 4)
	inter := [][]int{plain[2], plain[0], plain[3], plain[1]}
	for _, cfg := range allHierConfigs() {
		s, err := HierarchicalPhased(gather, inter, bcast, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
		prog, err := Compile(s)
		if err == nil {
			err = prog.EnsureExecutable()
		}
		if err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
	// Identical views are exactly Hierarchical.
	a, _ := Hierarchical(plain, HierarchicalConfig{NonLinear, InterRing})
	b, _ := HierarchicalPhased(plain, plain, plain, HierarchicalConfig{NonLinear, InterRing})
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("HierarchicalPhased over one view differs from Hierarchical")
	}
}

func TestHierarchicalPhasedRejectsInconsistentViews(t *testing.T) {
	plain := contiguousGroups(2, 4)
	cfg := HierarchicalConfig{NonLinear, InterRecursiveDoubling}
	for name, bcast := range map[string][][]int{
		"moved leader":        {{1, 0, 2, 3}, {4, 5, 6, 7}},
		"different partition": {{0, 1, 2, 4}, {3, 5, 6, 7}},
		"different shape":     {{0, 1}, {2, 3}, {4, 5}, {6, 7}},
	} {
		if _, err := HierarchicalPhased(plain, plain, bcast, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestHierarchicalErrors(t *testing.T) {
	if _, err := Hierarchical(nil, HierarchicalConfig{}); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := Hierarchical([][]int{{0, 1}, {2}}, HierarchicalConfig{}); err == nil {
		t.Error("non-uniform groups accepted")
	}
	if _, err := Hierarchical([][]int{{0}, {0}}, HierarchicalConfig{}); err == nil {
		t.Error("duplicate rank accepted")
	}
	if _, err := Hierarchical([][]int{{0}, {5}}, HierarchicalConfig{}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Hierarchical([][]int{{0}, {}}, HierarchicalConfig{}); err == nil {
		t.Error("empty group accepted")
	}
	// Recursive doubling inter phase requires power-of-two group count.
	if _, err := Hierarchical(contiguousGroups(3, 2), HierarchicalConfig{Linear, InterRecursiveDoubling}); err == nil {
		t.Error("3 groups accepted for recursive-doubling inter phase")
	}
}

func TestHierarchicalSingleGroup(t *testing.T) {
	s, err := Hierarchical(contiguousGroups(1, 8), HierarchicalConfig{NonLinear, InterRing})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyAllgather(); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalBroadcastVolume(t *testing.T) {
	// Phase 3 transfers must carry the full p blocks.
	p := 16
	s, err := Hierarchical(contiguousGroups(4, 4), HierarchicalConfig{Linear, InterRing})
	if err != nil {
		t.Fatal(err)
	}
	last := s.Stages[len(s.Stages)-1]
	for _, tr := range last.Transfers {
		if int(tr.N) != p {
			t.Errorf("broadcast transfer carries %d blocks, want %d", tr.N, p)
		}
	}
}

func TestGroups(t *testing.T) {
	c, err := topology.NewCluster(4, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(c, 16, topology.BlockBunch)
	groups := Groups(layout, c.NodeOf)
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4", len(groups))
	}
	for gi, g := range groups {
		if len(g) != 4 {
			t.Errorf("group %d has %d ranks", gi, len(g))
		}
		for _, r := range g {
			if c.NodeOf(layout[r]) != c.NodeOf(layout[g[0]]) {
				t.Errorf("group %d mixes nodes", gi)
			}
		}
	}
	// Cyclic layout: groups interleave but still partition the ranks.
	layout = topology.MustLayout(c, 16, topology.CyclicBunch)
	groups = Groups(layout, c.NodeOf)
	seen := map[int]bool{}
	for _, g := range groups {
		for _, r := range g {
			if seen[r] {
				t.Errorf("rank %d in two groups", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != 16 {
		t.Errorf("groups cover %d ranks, want 16", len(seen))
	}
}

func TestHierarchicalName(t *testing.T) {
	s, err := Hierarchical(contiguousGroups(2, 2), HierarchicalConfig{NonLinear, InterRing})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name, "non-linear") || !strings.Contains(s.Name, "ring") {
		t.Errorf("name = %q", s.Name)
	}
}

func TestIntraInterKindStrings(t *testing.T) {
	if Linear.String() != "linear" || NonLinear.String() != "non-linear" {
		t.Error("IntraKind strings")
	}
	if InterRing.String() != "ring" || InterRecursiveDoubling.String() != "recursive-doubling" {
		t.Error("InterKind strings")
	}
}

func TestOrderModes(t *testing.T) {
	if InitComm.String() != "initComm" || EndShuffle.String() != "endShfl" || NoOrderFix.String() != "none" {
		t.Error("OrderMode strings")
	}
	if OrderMode(9).String() == "" {
		t.Error("unknown order mode should format")
	}
}

func TestNeedsOrderFix(t *testing.T) {
	cases := []struct {
		build func() (*Schedule, error)
		want  bool
	}{
		{func() (*Schedule, error) { return RecursiveDoubling(8) }, true},
		{func() (*Schedule, error) { return Ring(8) }, false},
		{func() (*Schedule, error) { return NeighborExchange(8) }, false},
		{func() (*Schedule, error) { return Bruck(8) }, true},
		{func() (*Schedule, error) { return BinomialGather(8) }, true},
		{func() (*Schedule, error) { return BinomialBroadcast(8, 1) }, false},
		{func() (*Schedule, error) { return LinearGather(8) }, false},
		{func() (*Schedule, error) {
			return Hierarchical(contiguousGroups(2, 4), HierarchicalConfig{Linear, InterRing})
		}, false},
		{func() (*Schedule, error) {
			return Hierarchical(contiguousGroups(2, 4), HierarchicalConfig{Linear, InterRecursiveDoubling})
		}, true},
		{func() (*Schedule, error) {
			return Hierarchical(contiguousGroups(2, 4), HierarchicalConfig{NonLinear, InterRing})
		}, true},
	}
	for _, tc := range cases {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NeedsOrderFix(); got != tc.want {
			t.Errorf("%s: NeedsOrderFix = %v, want %v", s.Name, got, tc.want)
		}
	}
}

func TestWithOrderPreservation(t *testing.T) {
	s, _ := RecursiveDoubling(8)
	m := core.Mapping{0, 2, 1, 3, 4, 5, 6, 7} // swap ranks 1 and 2

	ic, err := WithOrderPreservation(s, m, InitComm)
	if err != nil {
		t.Fatal(err)
	}
	if len(ic.Pre) != 1 || len(ic.Pre[0].Transfers) != 2 {
		t.Errorf("initComm pre = %+v", ic.Pre)
	}
	if err := ic.Validate(); err != nil {
		t.Error(err)
	}
	if err := ic.VerifyAllgather(); err != nil {
		t.Error(err)
	}

	es, err := WithOrderPreservation(s, m, EndShuffle)
	if err != nil {
		t.Fatal(err)
	}
	if es.PostCopyBlocks != 8 {
		t.Errorf("endShfl post copy = %d, want 8", es.PostCopyBlocks)
	}
	// The original schedule is untouched.
	if len(s.Pre) != 0 || s.PostCopyBlocks != 0 {
		t.Error("WithOrderPreservation mutated the input schedule")
	}
}

// TestOrderFixFingerprintsPinned: WithOrderPreservation and
// InitCommSchedule build their init-comm stage through one function; the
// order-fixed fingerprints are the ones the two separate loops produced.
func TestOrderFixFingerprintsPinned(t *testing.T) {
	m := make(core.Mapping, 16)
	for r := range m {
		m[r] = (r * 5) % 16
	}
	rd, err := RecursiveDoubling(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode OrderMode
		want string
	}{
		{InitComm, "8c6420b18684f82c29d3340333c3814cb7726ab0df69cd5fcfdf2b42f66936e4"},
		{EndShuffle, "52fd4e09f942484c86b355ff675a7881d3366ef111b25664cf45e5267f90c55f"},
	} {
		s, err := WithOrderPreservation(rd, m, c.mode)
		if err != nil {
			t.Fatal(err)
		}
		if got := Fingerprint(s); got != c.want {
			t.Errorf("%v: fingerprint %s, want %s", c.mode, got, c.want)
		}
	}
	if got, want := Fingerprint(InitCommSchedule(m)), "784fc1f64b6f8985b003979f67dd5dd5f999e82c952839fea22e77852a1acb5f"; got != want {
		t.Errorf("InitCommSchedule: fingerprint %s, want %s", got, want)
	}
}

func TestWithOrderPreservationNoops(t *testing.T) {
	s, _ := RecursiveDoubling(8)
	// Identity mapping: nothing to fix.
	got, err := WithOrderPreservation(s, core.Identity(8), InitComm)
	if err != nil || got != s {
		t.Errorf("identity mapping should return the schedule unchanged (%v)", err)
	}
	// Ring never needs a fix.
	r, _ := Ring(8)
	got, err = WithOrderPreservation(r, core.Mapping{1, 0, 2, 3, 4, 5, 6, 7}, InitComm)
	if err != nil || got != r {
		t.Errorf("ring should be unchanged (%v)", err)
	}
	// NoOrderFix mode.
	got, err = WithOrderPreservation(s, core.Mapping{1, 0, 2, 3, 4, 5, 6, 7}, NoOrderFix)
	if err != nil || got != s {
		t.Errorf("NoOrderFix should return the schedule unchanged (%v)", err)
	}
}

func TestWithOrderPreservationErrors(t *testing.T) {
	s, _ := RecursiveDoubling(8)
	if _, err := WithOrderPreservation(s, core.Mapping{1, 0}, InitComm); err == nil {
		t.Error("mismatched mapping length accepted")
	}
	if _, err := WithOrderPreservation(s, core.Mapping{1, 0, 2, 3, 4, 5, 6, 7}, OrderMode(42)); err == nil {
		t.Error("unknown order mode accepted")
	}
}
