package topology

import "fmt"

// Distance units. The absolute values are unimportant to the mapping
// heuristics — only the ordering matters — but they are chosen so that every
// additional level of the physical hierarchy strictly increases distance:
//
//	same core          0
//	same socket        1   (shared L3)
//	same node          2   (QPI crossing)
//	same leaf switch   10 + 2 network hops  = 14
//	same line switch   10 + 4 hops          = 18
//	cross spine        10 + 6 hops          = 22
//
// matching the paper's combined use of hwloc (intra-node) and InfiniBand
// tools (inter-node) to extract one unified distance matrix.
const (
	distSameSocket   = 1
	distSameNode     = 2
	distInterNodeOff = 10
	distPerHop       = 2
)

// CoreDistance returns the physical distance between two global core
// indices under the unit scheme documented above.
func (c *Cluster) CoreDistance(a, b int) int {
	if a == b {
		return 0
	}
	na, nb := c.NodeOf(a), c.NodeOf(b)
	if na == nb {
		if c.SocketOf(a) == c.SocketOf(b) {
			return distSameSocket
		}
		return distSameNode
	}
	if c.Net == nil {
		return distInterNodeOff + distPerHop*2
	}
	return distInterNodeOff + distPerHop*c.Net.Hops(na, nb)
}

// Oracle is the read interface the mapping heuristics need from a distance
// source: the number of covered slots and the pairwise distance between two
// of them. *Distances is its implementation.
type Oracle interface {
	// N returns the number of covered slots.
	N() int
	// At returns the distance between the i-th and j-th covered slots.
	At(i, j int) int32
}

var _ Oracle = (*Distances)(nil)

// Distances is the core-to-core distance oracle over an arbitrary set of
// cores: At(i, j) is the distance between Cores[i] and Cores[j].
//
// In the paper's framework the distance matrix is extracted once at job
// start (with hwloc and InfiniBand tools) and saved; the mapping heuristics
// consume only these distances, never the topology itself. The matrix is
// held in compact form. Each slot carries its unit id at every level of the
// physical hierarchy: socket, node, then the network's nested groups. Two
// slots are at the distance of the finest level where they share a unit.
// Networks whose hop counts do not nest (tori) stop at the node level and add
// an m×m table between the job's m distinct nodes, read when two slots share
// no level. Memory is O(p·levels + m²); no p×p state exists.
type Distances struct {
	Cores []int // global core index of each slot

	dists  []int32 // distance of each level, strictly ascending
	units  []int32 // number of distinct units at each level
	coords []int32 // len(Cores) x len(dists), slot-major: unit id per slot per level
	table  []int32 // last level's units², row-major; nil when that level is a single unit
}

// NewDistances computes the distance oracle for the given global core set on
// cluster c in O(p·levels + m²), asking Network.Hops once per ordered pair of
// the job's m distinct nodes when the network is not hierarchical. The cores
// slice is not copied; callers must not mutate it afterwards.
func NewDistances(c *Cluster, cores []int) (*Distances, error) {
	n := len(cores)
	if n == 0 {
		return nil, fmt.Errorf("topology: empty core set")
	}
	total := c.TotalCores()
	for _, core := range cores {
		if core < 0 || core >= total {
			return nil, fmt.Errorf("topology: core %d outside cluster with %d cores", core, total)
		}
	}

	type level struct {
		dist int32
		key  func(core int) int
	}
	levels := []level{
		{distSameSocket, c.SocketOf},
		{distSameNode, c.NodeOf},
	}
	switch net := c.Net.(type) {
	case nil:
		// Uniform inter-node channel: CoreDistance reports every cross-node
		// pair at a fixed two-hop distance.
		levels = append(levels, level{distInterNodeOff + distPerHop*2, func(int) int { return 0 }})
	case HierarchicalNetwork:
		prev := 0
		for _, hl := range net.HierLevels() {
			if hl.Hops <= prev {
				return nil, fmt.Errorf("topology: network %q hierarchy levels not ascending", net.Label())
			}
			prev = hl.Hops
			group := hl.GroupOf
			levels = append(levels, level{
				int32(distInterNodeOff + distPerHop*hl.Hops),
				func(core int) int { return group(c.NodeOf(core)) },
			})
		}
	}

	d := &Distances{Cores: cores}
	var keys []int // key of each unit of the last level built, by unit id
	for _, lv := range levels {
		ids := make([]int32, n)
		seen := make(map[int]int32, 16)
		keys = keys[:0]
		for s, core := range cores {
			key := lv.key(core)
			id, ok := seen[key]
			if !ok {
				id = int32(len(keys))
				seen[key] = id
				keys = append(keys, key)
			}
			ids[s] = id
		}
		d.dists = append(d.dists, lv.dist)
		d.units = append(d.units, int32(len(keys)))
		d.coords = append(d.coords, ids...)
		if len(keys) == 1 {
			// Every remaining level is unreachable: At resolves here first.
			break
		}
	}
	L := len(d.dists)
	if m := len(keys); m > 1 {
		if hn, ok := c.Net.(HierarchicalNetwork); ok {
			return nil, fmt.Errorf("topology: network %q hierarchy does not converge to a single root", hn.Label())
		}
		// The levels stopped at the node: keys holds the node of each unit.
		d.table = make([]int32, m*m)
		for a, na := range keys {
			for b, nb := range keys {
				if a != b {
					d.table[a*m+b] = int32(distInterNodeOff + distPerHop*c.Net.Hops(na, nb))
				}
			}
		}
	}
	// coords was appended level-major; transpose to slot-major so that At
	// touches one contiguous stripe per slot.
	bySlot := make([]int32, n*L)
	for l := 0; l < L; l++ {
		for s, id := range d.coords[l*n : (l+1)*n] {
			bySlot[s*L+l] = id
		}
	}
	d.coords = bySlot
	return d, nil
}

// N returns the number of covered slots.
func (d *Distances) N() int { return len(d.Cores) }

// At returns the distance between the i-th and j-th covered slots: the
// distance of the finest level where they share a unit, else the table entry
// between their last-level units.
func (d *Distances) At(i, j int) int32 {
	if i == j {
		return 0
	}
	L := len(d.dists)
	ci := d.coords[i*L : i*L+L]
	cj := d.coords[j*L : j*L+L]
	for l := 0; l < L; l++ {
		if ci[l] == cj[l] {
			return d.dists[l]
		}
	}
	return d.TableAt(ci[L-1], cj[L-1])
}

// Levels returns the number of hierarchy levels.
func (d *Distances) Levels() int { return len(d.dists) }

// UnitCount returns the number of distinct units at level l.
func (d *Distances) UnitCount(l int) int { return int(d.units[l]) }

// UnitOf returns the unit id of slot s at level l.
func (d *Distances) UnitOf(l, s int) int32 { return d.coords[s*len(d.dists)+l] }

// TableAt returns the distance between distinct units a and b of the last
// level. Only oracles whose last level holds more than one unit (tori spread
// over several nodes) have a table; every entry lies above every level.
func (d *Distances) TableAt(a, b int32) int32 {
	return d.table[int(a)*int(d.units[len(d.units)-1])+int(b)]
}

// Validate checks the invariants At and the mapping kernel rely on: positive,
// strictly ascending level distances; every coordinate inside its level's
// unit count; nested levels (each unit lies inside one unit of the next
// level); and either a single unit at the last level, or a symmetric table
// with a zero diagonal whose off-diagonal entries lie above the last level's
// distance.
func (d *Distances) Validate() error {
	n, L := len(d.Cores), len(d.dists)
	if n == 0 || L == 0 || len(d.units) != L || len(d.coords) != n*L {
		return fmt.Errorf("topology: distance oracle shape: %d cores, %d levels, %d unit counts, %d coordinates",
			n, L, len(d.units), len(d.coords))
	}
	for l, v := range d.dists {
		if v <= 0 || (l > 0 && v <= d.dists[l-1]) {
			return fmt.Errorf("topology: level distances %v not positive and ascending", d.dists)
		}
		if d.units[l] < 1 || int(d.units[l]) > n {
			return fmt.Errorf("topology: level %d has %d units for %d cores", l, d.units[l], n)
		}
	}
	for s := 0; s < n; s++ {
		for l, u := range d.coords[s*L : s*L+L] {
			if u < 0 || u >= d.units[l] {
				return fmt.Errorf("topology: slot %d unit %d outside level %d's %d units", s, u, l, d.units[l])
			}
		}
	}
	for l := 0; l+1 < L; l++ {
		parent := make([]int32, d.units[l])
		for u := range parent {
			parent[u] = -1
		}
		for s := 0; s < n; s++ {
			u, up := d.coords[s*L+l], d.coords[s*L+l+1]
			if parent[u] < 0 {
				parent[u] = up
			} else if parent[u] != up {
				return fmt.Errorf("topology: level %d unit %d spans units %d and %d of level %d", l, u, parent[u], up, l+1)
			}
		}
	}
	m := int(d.units[L-1])
	if m == 1 {
		if d.table != nil {
			return fmt.Errorf("topology: single-rooted oracle carries a %d-entry table", len(d.table))
		}
		return nil
	}
	if len(d.table) != m*m {
		return fmt.Errorf("topology: table has %d entries for %d last-level units", len(d.table), m)
	}
	for a := 0; a < m; a++ {
		if v := d.table[a*m+a]; v != 0 {
			return fmt.Errorf("topology: nonzero table diagonal %d at unit %d", v, a)
		}
		for b := a + 1; b < m; b++ {
			switch v, w := d.table[a*m+b], d.table[b*m+a]; {
			case v != w:
				return fmt.Errorf("topology: asymmetric table (%d,%d): %d vs %d", a, b, v, w)
			case v <= d.dists[L-1]:
				return fmt.Errorf("topology: table entry (%d,%d) = %d not above level distance %d", a, b, v, d.dists[L-1])
			}
		}
	}
	return nil
}
