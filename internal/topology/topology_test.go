package topology

import (
	"bytes"
	"slices"
	"testing"
)

func TestClusterShape(t *testing.T) {
	c, err := NewCluster(4, 2, 4, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if got := c.CoresPerNode(); got != 8 {
		t.Errorf("CoresPerNode = %d, want 8", got)
	}
	if got := c.TotalCores(); got != 32 {
		t.Errorf("TotalCores = %d, want 32", got)
	}
}

func TestClusterIndexing(t *testing.T) {
	c, _ := NewCluster(4, 2, 4, nil)
	cases := []struct {
		core         int
		node, socket int
	}{
		{0, 0, 0},
		{3, 0, 0},
		{4, 0, 1},
		{7, 0, 1},
		{8, 1, 2},
		{15, 1, 3},
		{31, 3, 7},
	}
	for _, tc := range cases {
		if got := c.NodeOf(tc.core); got != tc.node {
			t.Errorf("NodeOf(%d) = %d, want %d", tc.core, got, tc.node)
		}
		if got := c.SocketOf(tc.core); got != tc.socket {
			t.Errorf("SocketOf(%d) = %d, want %d", tc.core, got, tc.socket)
		}
	}
}

func TestCoreAtRoundTrip(t *testing.T) {
	c, _ := NewCluster(3, 2, 5, nil)
	for node := 0; node < c.Nodes; node++ {
		for s := 0; s < c.SocketsPerNode; s++ {
			for k := 0; k < c.CoresPerSocket; k++ {
				core := c.CoreAt(node, s, k)
				if c.NodeOf(core) != node {
					t.Fatalf("CoreAt(%d,%d,%d)=%d has node %d", node, s, k, core, c.NodeOf(core))
				}
				if c.SocketOf(core) != node*c.SocketsPerNode+s {
					t.Fatalf("CoreAt(%d,%d,%d)=%d has socket %d", node, s, k, core, c.SocketOf(core))
				}
			}
		}
	}
}

func TestNewClusterRejectsBadShapes(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 2, 2}} {
		if _, err := NewCluster(dims[0], dims[1], dims[2], nil); err == nil {
			t.Errorf("NewCluster(%v) accepted invalid shape", dims)
		}
	}
}

func TestNewClusterRejectsSmallNetwork(t *testing.T) {
	net := TwoLevelFatTree(2, 2, 1) // 4 nodes
	if _, err := NewCluster(8, 2, 4, net); err == nil {
		t.Error("NewCluster accepted a network smaller than the node count")
	}
}

func TestSameNodeSameSocket(t *testing.T) {
	c, _ := NewCluster(2, 2, 4, nil)
	if c.SocketOf(0) != c.SocketOf(3) || c.SocketOf(3) == c.SocketOf(4) {
		t.Error("SocketOf misclassifies socket boundary")
	}
	if c.NodeOf(0) != c.NodeOf(7) || c.NodeOf(7) == c.NodeOf(8) {
		t.Error("NodeOf misclassifies node boundary")
	}
}

func TestGPCModel(t *testing.T) {
	c := GPC()
	if err := c.Validate(); err != nil {
		t.Fatalf("GPC invalid: %v", err)
	}
	if c.TotalCores() != 4096 {
		t.Errorf("GPC cores = %d, want 4096", c.TotalCores())
	}
	if c.Net.Nodes() != 512 {
		t.Errorf("GPC network nodes = %d, want 512", c.Net.Nodes())
	}
	if err := c.Net.Validate(); err != nil {
		t.Errorf("GPC network invalid: %v", err)
	}
}

func TestSingleNode(t *testing.T) {
	c := SingleNode(2, 8)
	if c.TotalCores() != 16 || c.Nodes != 1 {
		t.Errorf("SingleNode(2,8) = %v", c)
	}
	if got := c.CoreDistance(0, 15); got != distSameNode {
		t.Errorf("cross-socket distance = %d, want %d", got, distSameNode)
	}
}

func TestFatTreeHops(t *testing.T) {
	f := GPCFatTree()
	// Same node never queried via Hops with distinct nodes; same leaf:
	if got := f.Hops(0, 1); got != 2 {
		t.Errorf("same-leaf hops = %d, want 2", got)
	}
	// Nodes 0 and 16 are on leaves 0 and 1 (16 nodes/leaf), both served by
	// line switch 0, so the route avoids the spine.
	if got := f.Hops(0, 16); got != 4 {
		t.Errorf("same-line hops = %d, want 4", got)
	}
	// Leaves 0 and 31 use different line switches: full 6-hop route.
	if got := f.Hops(0, f.NodesPerLeaf*31); got != 6 {
		t.Errorf("cross-spine hops = %d, want 6", got)
	}
}

func TestFatTreeHopsMatchesRouteLength(t *testing.T) {
	f := GPCFatTree()
	pairs := [][2]int{{0, 1}, {0, 16}, {0, 496}, {3, 200}, {511, 0}, {100, 101}, {17, 33}}
	var buf []Link
	for _, pr := range pairs {
		buf = f.Route(buf[:0], pr[0], pr[1])
		if len(buf) != f.Hops(pr[0], pr[1]) {
			t.Errorf("Route(%d,%d) has %d links, Hops says %d", pr[0], pr[1], len(buf), f.Hops(pr[0], pr[1]))
		}
	}
}

func TestFatTreeRouteSymmetricLinks(t *testing.T) {
	f := GPCFatTree()
	asSet := func(links []Link) map[Link]int {
		m := make(map[Link]int)
		for _, l := range links {
			m[l]++
		}
		return m
	}
	pairs := [][2]int{{0, 17}, {5, 499}, {16, 0}, {255, 256}}
	for _, pr := range pairs {
		fwd := asSet(f.Route(nil, pr[0], pr[1]))
		rev := asSet(f.Route(nil, pr[1], pr[0]))
		if len(fwd) != len(rev) {
			t.Errorf("route %v: forward uses %d links, reverse %d", pr, len(fwd), len(rev))
			continue
		}
		for l, n := range fwd {
			if rev[l] != n {
				t.Errorf("route %v: link %+v counted %d forward, %d reverse", pr, l, n, rev[l])
			}
		}
	}
}

func TestFatTreeRoutePanicsOnSameNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Route(0,0) did not panic")
		}
	}()
	GPCFatTree().Route(nil, 0, 0)
}

func TestFatTreeMultiplicity(t *testing.T) {
	f := GPCFatTree()
	cases := []struct {
		kind LinkKind
		want int
	}{
		{LinkNodeLeaf, 1},
		{LinkLeafLine, 3},
		{LinkLineSpine, 2},
	}
	for _, tc := range cases {
		if got := f.Multiplicity(Link{Kind: tc.kind}); got != tc.want {
			t.Errorf("Multiplicity(%v) = %d, want %d", tc.kind, got, tc.want)
		}
	}
}

func TestFatTreeValidate(t *testing.T) {
	good := GPCFatTree()
	if err := good.Validate(); err != nil {
		t.Errorf("GPC fat-tree invalid: %v", err)
	}
	bad := GPCFatTree()
	bad.LeavesPerLine = 1 // 8 lines x 1 leaf < 32 leaves
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted under-provisioned line switches")
	}
	bad2 := GPCFatTree()
	bad2.LeafUplinks = 0
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted zero uplink multiplicity")
	}
}

func TestLinkKindString(t *testing.T) {
	if LinkNodeLeaf.String() != "node-leaf" || LinkLeafLine.String() != "leaf-line" || LinkLineSpine.String() != "line-spine" {
		t.Error("LinkKind.String mismatch")
	}
	if LinkKind(99).String() == "" {
		t.Error("unknown LinkKind should still format")
	}
}

func TestMaxHops(t *testing.T) {
	if got := GPCFatTree().MaxHops(); got != 6 {
		t.Errorf("GPC MaxHops = %d, want 6", got)
	}
	if got := TwoLevelFatTree(4, 2, 2).MaxHops(); got != 4 {
		t.Errorf("two-level MaxHops = %d, want 4", got)
	}
	one := TwoLevelFatTree(1, 8, 1)
	if got := one.MaxHops(); got != 2 {
		t.Errorf("single-leaf MaxHops = %d, want 2", got)
	}
}

func TestCoreDistanceOrdering(t *testing.T) {
	c := GPC()
	sameSocket := c.CoreDistance(0, 1)
	sameNode := c.CoreDistance(0, 4)
	sameLeaf := c.CoreDistance(0, 8)         // nodes 0 and 1, same leaf
	sameLine := c.CoreDistance(0, 16*8)      // nodes 0 and 16, leaves 0 and 1
	crossSpine := c.CoreDistance(0, 31*16*8) // leaf 0 vs leaf 31
	if !(0 < sameSocket && sameSocket < sameNode && sameNode < sameLeaf && sameLeaf < sameLine && sameLine < crossSpine) {
		t.Errorf("distance ordering violated: %d %d %d %d %d", sameSocket, sameNode, sameLeaf, sameLine, crossSpine)
	}
	if c.CoreDistance(7, 7) != 0 {
		t.Error("self distance nonzero")
	}
}

func TestCoreDistanceNoNet(t *testing.T) {
	c, _ := NewCluster(4, 2, 2, nil)
	if got := c.CoreDistance(0, 4); got <= distSameNode {
		t.Errorf("inter-node distance without net = %d, want > %d", got, distSameNode)
	}
}

func TestNewDistancesAndValidate(t *testing.T) {
	c := GPC()
	cores := []int{0, 1, 4, 8, 128, 4095}
	d, err := NewDistances(c, cores)
	if err != nil {
		t.Fatalf("NewDistances: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.N() != len(cores) {
		t.Errorf("N = %d, want %d", d.N(), len(cores))
	}
	if d.At(0, 1) != int32(c.CoreDistance(0, 1)) {
		t.Error("At(0,1) does not match CoreDistance")
	}
	if got := d.At(2, 2); got != 0 {
		t.Errorf("At(2,2) = %d", got)
	}
}

func TestNewDistancesRejectsBadCores(t *testing.T) {
	c := SingleNode(1, 4)
	if _, err := NewDistances(c, nil); err == nil {
		t.Error("accepted empty core set")
	}
	if _, err := NewDistances(c, []int{0, 99}); err == nil {
		t.Error("accepted out-of-range core")
	}
}

// TestDistancesValidateCatchesCorruption crafts one violation of each rule
// At and the mapping kernel rely on. Validate must reject every one, and so
// must ReadDistances on a file that carries it under a correct checksum.
func TestDistancesValidateCatchesCorruption(t *testing.T) {
	fx := persistFixtures(t)
	clone := func(name string) *Distances {
		d := fx[name]
		return &Distances{Cores: slices.Clone(d.Cores), dists: slices.Clone(d.dists),
			units: slices.Clone(d.units), coords: slices.Clone(d.coords), table: slices.Clone(d.table)}
	}
	cases := []struct {
		name   string
		base   string
		mutate func(d *Distances)
	}{
		{"coordinate above unit count", "torus", func(d *Distances) { d.coords[0] = d.units[0] }},
		{"negative coordinate", "gpc", func(d *Distances) { d.coords[1] = -1 }},
		{"unit count above cores", "gpc", func(d *Distances) { d.units[0] = int32(len(d.Cores) + 1) }},
		{"levels not nested", "gpc", func(d *Distances) {
			// Slot 1 runs on another node than slot 0: give it slot 0's socket.
			L := len(d.dists)
			d.coords[L] = d.coords[0]
		}},
		{"distances not ascending", "gpc", func(d *Distances) { d.dists[1] = d.dists[0] }},
		{"distance not positive", "torus", func(d *Distances) { d.dists[0] = 0 }},
		{"two roots and no table", "gpc", func(d *Distances) {
			L := len(d.dists)
			d.units[L-1] = 2
			d.coords[(len(d.Cores)-1)*L+L-1] = 1
		}},
		{"table on a single root", "gpc", func(d *Distances) { d.table = []int32{0} }},
		{"table of the wrong size", "torus", func(d *Distances) { d.table = d.table[:len(d.table)-1] }},
		{"nonzero table diagonal", "torus", func(d *Distances) { d.table[0] = d.table[1] }},
		{"asymmetric table", "torus", func(d *Distances) { d.table[1]++ }},
		{"table entry not above the levels", "torus", func(d *Distances) {
			m := int(d.units[len(d.units)-1])
			d.table[1], d.table[m] = d.dists[len(d.dists)-1], d.dists[len(d.dists)-1]
		}},
		{"coordinates of the wrong length", "torus", func(d *Distances) { d.coords = d.coords[1:] }},
	}
	for _, tc := range cases {
		d := clone(tc.base)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: unbroken %s fixture rejected: %v", tc.name, tc.base, err)
		}
		tc.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadDistances(&buf); err == nil {
			t.Errorf("%s: ReadDistances accepted it", tc.name)
		}
	}
}

func TestLayoutKinds(t *testing.T) {
	c, _ := NewCluster(2, 2, 2, nil) // 2 nodes x 4 cores
	p := 8
	want := map[string][]int{
		"block-bunch":    {0, 1, 2, 3, 4, 5, 6, 7},
		"block-scatter":  {0, 2, 1, 3, 4, 6, 5, 7},
		"cyclic-bunch":   {0, 4, 1, 5, 2, 6, 3, 7},
		"cyclic-scatter": {0, 4, 2, 6, 1, 5, 3, 7},
	}
	for _, k := range AllLayouts {
		got, err := Layout(c, p, k)
		if err != nil {
			t.Fatalf("Layout(%v): %v", k, err)
		}
		w := want[k.String()]
		for r := range got {
			if got[r] != w[r] {
				t.Errorf("%v layout = %v, want %v", k, got, w)
				break
			}
		}
	}
}

func TestLayoutValid(t *testing.T) {
	c := GPC()
	for _, k := range AllLayouts {
		for _, p := range []int{1, 7, 8, 64, 4096} {
			l, err := Layout(c, p, k)
			if err != nil {
				t.Fatalf("Layout(%d, %v): %v", p, k, err)
			}
			if err := ValidateLayout(c, l); err != nil {
				t.Errorf("Layout(%d, %v) invalid: %v", p, k, err)
			}
		}
	}
}

func TestLayoutErrors(t *testing.T) {
	c := SingleNode(2, 2)
	if _, err := Layout(c, 0, BlockBunch); err == nil {
		t.Error("Layout accepted p=0")
	}
	if _, err := Layout(c, 5, BlockBunch); err == nil {
		t.Error("Layout accepted more processes than cores")
	}
}

func TestValidateLayoutCatchesDuplicates(t *testing.T) {
	c := SingleNode(2, 2)
	if err := ValidateLayout(c, []int{0, 1, 1}); err == nil {
		t.Error("ValidateLayout missed duplicate core")
	}
	if err := ValidateLayout(c, []int{0, -1}); err == nil {
		t.Error("ValidateLayout missed negative core")
	}
}

func TestLayoutStringers(t *testing.T) {
	if BlockBunch.String() != "block-bunch" || CyclicScatter.String() != "cyclic-scatter" {
		t.Error("LayoutKind.String mismatch")
	}
	if Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Error("NodeOrder.String mismatch")
	}
	if Bunch.String() != "bunch" || Scatter.String() != "scatter" {
		t.Error("SocketOrder.String mismatch")
	}
}

func TestClusterString(t *testing.T) {
	if s := GPC().String(); s == "" {
		t.Error("empty String()")
	}
	c, _ := NewCluster(1, 1, 1, nil)
	if s := c.String(); s == "" {
		t.Error("empty String() without net")
	}
}

func TestMustLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLayout did not panic for oversubscription")
		}
	}()
	MustLayout(SingleNode(1, 1), 2, BlockBunch)
}
