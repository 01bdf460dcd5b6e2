package topology

import "testing"

func TestClusterFingerprintStability(t *testing.T) {
	// Golden values: fingerprints feed content-addressed cache keys, so an
	// accidental change to the hashing scheme must fail this test rather
	// than silently invalidate (or worse, alias) cached results.
	golden := []struct {
		name string
		mk   func() *Cluster
		want uint64
	}{
		{"single-node-2x4", func() *Cluster { return SingleNode(2, 4) }, 0x60315b29b9f43871},
		{"gpc", GPC, 0x3e947f7ff59fe6e8},
	}
	for _, g := range golden {
		c := g.mk()
		fp := c.Fingerprint()
		if fp != c.Fingerprint() {
			t.Errorf("%s: fingerprint not deterministic", g.name)
		}
		if fp != g.want {
			t.Errorf("%s: fingerprint %#x, golden %#x — changing the scheme invalidates cache keys", g.name, fp, g.want)
		}
		// An equal, independently constructed cluster must hash equal.
		if again := g.mk().Fingerprint(); again != fp {
			t.Errorf("%s: independent construction hashed %#x vs %#x", g.name, again, fp)
		}
	}
}

func TestClusterFingerprintDistinguishesStructure(t *testing.T) {
	base := func() *Cluster {
		c, err := NewCluster(8, 2, 4, TwoLevelFatTree(4, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := base().Fingerprint()
	variants := map[string]func() (*Cluster, error){
		"more-nodes":     func() (*Cluster, error) { return NewCluster(8, 2, 4, TwoLevelFatTree(8, 1, 2)) },
		"swapped-shape":  func() (*Cluster, error) { return NewCluster(8, 4, 2, TwoLevelFatTree(4, 2, 2)) },
		"fatter-uplinks": func() (*Cluster, error) { return NewCluster(8, 2, 4, TwoLevelFatTree(4, 2, 4)) },
		"no-net":         func() (*Cluster, error) { return NewCluster(8, 2, 4, nil) },
		"torus":          func() (*Cluster, error) { return NewCluster(8, 2, 4, NewTorus3D(2, 2, 2)) },
	}
	seen := map[uint64]string{ref: "ref"}
	for name, mk := range variants {
		c, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision between %q and %q", prev, name)
		}
		seen[fp] = name
	}
}

func TestParseLayoutKind(t *testing.T) {
	for _, k := range AllLayouts {
		got, err := ParseLayoutKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseLayoutKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseLayoutKind("diagonal-spread"); err == nil {
		t.Error("expected error for unknown layout name")
	}
}
