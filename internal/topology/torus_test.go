package topology

import (
	"testing"
	"testing/quick"
)

func TestTorusBasics(t *testing.T) {
	tor := NewTorus3D(4, 3, 2)
	if err := tor.Validate(); err != nil {
		t.Fatal(err)
	}
	if tor.Nodes() != 24 {
		t.Errorf("Nodes = %d, want 24", tor.Nodes())
	}
	if tor.Label() != "torus-4x3x2" {
		t.Errorf("Label = %q", tor.Label())
	}
	if got := tor.MaxHops(); got != 2+1+1 {
		t.Errorf("MaxHops = %d, want 4", got)
	}
}

func TestTorusValidate(t *testing.T) {
	if err := NewTorus3D(0, 2, 2).Validate(); err == nil {
		t.Error("zero dimension accepted")
	}
	bad := NewTorus3D(2, 2, 2)
	bad.LinkMult = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative multiplicity accepted")
	}
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	tor := NewTorus3D(5, 4, 3)
	for n := 0; n < tor.Nodes(); n++ {
		x, y, z := tor.coords(n)
		if tor.node(x, y, z) != n {
			t.Fatalf("round trip failed for node %d", n)
		}
	}
}

func TestRingDelta(t *testing.T) {
	cases := []struct{ a, b, n, want int }{
		{0, 1, 8, 1},
		{0, 7, 8, -1},
		{0, 4, 8, 4}, // tie: +direction
		{1, 5, 8, 4}, // tie
		{3, 3, 8, 0},
		{6, 1, 8, 3},
		{0, 2, 3, -1},
	}
	for _, tc := range cases {
		if got := ringDelta(tc.a, tc.b, tc.n); got != tc.want {
			t.Errorf("ringDelta(%d,%d,%d) = %d, want %d", tc.a, tc.b, tc.n, got, tc.want)
		}
	}
}

func TestTorusHopsMatchesRouteLength(t *testing.T) {
	tor := NewTorus3D(4, 4, 2)
	for src := 0; src < tor.Nodes(); src++ {
		for dst := 0; dst < tor.Nodes(); dst++ {
			if src == dst {
				continue
			}
			route := tor.RouteDir(nil, src, dst)
			if len(route) != tor.Hops(src, dst) {
				t.Fatalf("route(%d,%d) length %d != hops %d", src, dst, len(route), tor.Hops(src, dst))
			}
		}
	}
}

func TestTorusRouteDeterministicAndContiguous(t *testing.T) {
	// Dimension-order routes are deterministic, and every hop connects
	// ring neighbours (each link joins nodes differing by one step on one
	// axis). Routes are NOT symmetric for multi-axis pairs — X hops happen
	// at the source's Y/Z in one direction and at the destination's in the
	// other — which is faithful to real dimension-order routing.
	tor := NewTorus3D(4, 3, 2)
	prop := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % tor.Nodes()
		b := int(bRaw) % tor.Nodes()
		if a == b {
			return true
		}
		r1 := tor.RouteDir(nil, a, b)
		r2 := tor.RouteDir(nil, a, b)
		if len(r1) != len(r2) {
			return false
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				return false
			}
		}
		// Every hop must be a valid single-axis neighbour link.
		for _, h := range r1 {
			if tor.Hops(h.Link.A, h.Link.B) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTorusRouteDirectionsOppose(t *testing.T) {
	tor := NewTorus3D(4, 1, 1) // a plain ring
	fwd := tor.RouteDir(nil, 0, 1)
	rev := tor.RouteDir(nil, 1, 0)
	if len(fwd) != 1 || len(rev) != 1 {
		t.Fatalf("ring neighbour route lengths: %d %d", len(fwd), len(rev))
	}
	if fwd[0].Link != rev[0].Link {
		t.Error("neighbour pair uses different links per direction")
	}
	if fwd[0].Forward == rev[0].Forward {
		t.Error("both directions marked the same way")
	}
}

func TestTorusWrapAround(t *testing.T) {
	tor := NewTorus3D(8, 1, 1)
	// 0 -> 7 should take the single wrap link, not 7 hops.
	if got := tor.Hops(0, 7); got != 1 {
		t.Errorf("wrap hops = %d, want 1", got)
	}
	route := tor.RouteDir(nil, 0, 7)
	if len(route) != 1 {
		t.Fatalf("wrap route length %d", len(route))
	}
	if route[0].Forward {
		t.Error("0->7 on an 8-ring should travel the -direction")
	}
}

func TestTorusRoutePanicsOnSameNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RouteDir(0,0) did not panic")
		}
	}()
	NewTorus3D(2, 2, 2).RouteDir(nil, 0, 0)
}

func TestTorusClusterDistances(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	c, err := NewCluster(64, 2, 4, tor)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Distance grows with torus hop count.
	near := c.CoreDistance(0, c.CoreAt(1, 0, 0)) // 1 hop
	far := c.CoreDistance(0, c.CoreAt(42, 0, 0)) // several hops
	if near >= far {
		t.Errorf("distance not increasing with hops: %d vs %d", near, far)
	}
}

func TestFatTreeRouteDirMatchesRoute(t *testing.T) {
	f := GPCFatTree()
	pairs := [][2]int{{0, 1}, {0, 16}, {0, 496}, {255, 256}, {511, 0}}
	for _, pr := range pairs {
		plain := f.Route(nil, pr[0], pr[1])
		dir := f.RouteDir(nil, pr[0], pr[1])
		if len(plain) != len(dir) {
			t.Fatalf("route lengths differ for %v", pr)
		}
		for i := range plain {
			if plain[i] != dir[i].Link {
				t.Errorf("link %d differs for %v", i, pr)
			}
		}
		// First hop ascends, last hop descends.
		if !dir[0].Forward || dir[len(dir)-1].Forward {
			t.Errorf("direction flags wrong for %v: %+v", pr, dir)
		}
	}
}

// TestFatTreeRouteDirAppends: RouteDir extends the caller's buffer in place
// (prefix kept, no reallocation while capacity lasts) and therefore does not
// allocate — the pricing scratch hands it one reusable buffer per machine.
func TestFatTreeRouteDirAppends(t *testing.T) {
	f := GPCFatTree()
	buf := make([]DirLink, 1, 16)
	sentinel := DirLink{Link: Link{Kind: LinkNodeLeaf, A: -1, B: -1}}
	buf[0] = sentinel
	out := f.RouteDir(buf, 0, 496)
	if &out[0] != &buf[0] || out[0] != sentinel {
		t.Fatal("RouteDir did not append into the caller's buffer")
	}
	want := f.RouteDir(nil, 0, 496)
	if len(out) != 1+len(want) {
		t.Fatalf("appended %d links, want %d", len(out)-1, len(want))
	}
	for i := range want {
		if out[1+i] != want[i] {
			t.Errorf("link %d: %+v, want %+v", i, out[1+i], want[i])
		}
	}
	if avg := testing.AllocsPerRun(100, func() { buf = f.RouteDir(buf[:0], 3, 300) }); avg != 0 {
		t.Errorf("RouteDir into a sized buffer allocates %.1f times per call, want 0", avg)
	}
}
