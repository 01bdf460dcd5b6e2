package topology

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Oracle is the minimal read interface the mapping heuristics need from a
// distance source: the number of covered slots and the pairwise distance
// between two of them. Both the dense matrix (Distances) and the compact
// hierarchical representation (Hierarchy) implement it, so heuristics can be
// run without ever materialising the O(p^2) matrix.
type Oracle interface {
	// N returns the number of covered slots.
	N() int
	// At returns the distance between the i-th and j-th covered slots.
	At(i, j int) int32
}

// Compile-time conformance checks.
var (
	_ Oracle = (*Distances)(nil)
	_ Oracle = (*Hierarchy)(nil)
)

// NewOracle returns the cheapest exact distance oracle for the given global
// core set on cluster c: the O(p) Hierarchy when the interconnect is
// hierarchical (fat-trees) or absent (uniform inter-node channel), and the
// dense Distances matrix otherwise (tori). The two agree entry for entry
// wherever both exist, so callers that only run heuristics never need to
// know which one they got. The cores slice is not copied; callers must not
// mutate it afterwards.
func NewOracle(c *Cluster, cores []int) (Oracle, error) {
	if h, err := NewHierarchy(c, cores); err == nil {
		return h, nil
	}
	return NewDistances(c, cores)
}

// HierLevel describes one nested node grouping of a hierarchical network:
// two distinct nodes whose finest shared group sits at this level exchange
// messages over Hops links.
type HierLevel struct {
	// Hops is the hop count between distinct nodes whose finest common
	// group is this level.
	Hops int
	// GroupOf returns the group id of a node at this level.
	GroupOf func(node int) int
}

// HierarchicalNetwork is implemented by networks whose hop counts follow a
// nested grouping of nodes — the property that makes the O(p)-memory
// Hierarchy representation (and the bucketed find-closest kernel built on
// it) exact. Implementations must return levels in ascending hop order,
// with nested groupings (every group at one level contained in a group of
// the next), a single all-node group at the last level, and
// Hops(a, b) equal to the Hops of the finest level where a and b share a
// group. Fat-trees qualify; tori (whose ring distances are not
// ultrametric) do not.
type HierarchicalNetwork interface {
	Network
	HierLevels() []HierLevel
}

var _ HierarchicalNetwork = (*FatTree)(nil)

// HierLevels implements HierarchicalNetwork for the fat-tree: nodes group
// by leaf switch (2 hops), by line switch (4 hops) and finally by the whole
// network (6 hops, via a spine bounce). The line grouping is independent of
// the enclosure chosen by routing, so the levels are exact for every
// enclosure count.
func (f *FatTree) HierLevels() []HierLevel {
	return []HierLevel{
		{Hops: 2, GroupOf: f.LeafOf},
		{Hops: 4, GroupOf: func(node int) int { return f.LineOf(f.LeafOf(node)) }},
		{Hops: 6, GroupOf: func(int) int { return 0 }},
	}
}

// Hierarchy is the compact hierarchical distance oracle: instead of an
// O(p^2) matrix it stores, for each covered slot, its unit id at every
// level of the physical hierarchy (socket, node, then the network's nested
// groupings). The distance between two slots is the distance of the finest
// level at which they share a unit, so the representation costs
// O(p x levels) memory and answers At in O(levels).
//
// A Hierarchy is only constructible when the cluster's interconnect is
// hierarchical (nil networks and HierarchicalNetwork implementations); for
// anything else — tori in particular — NewHierarchy fails and callers fall
// back to the dense matrix.
type Hierarchy struct {
	// Cores is the global core index of each covered slot, as in Distances.
	Cores []int

	dists  []int32 // distance value of each level, strictly ascending
	units  []int32 // number of distinct units at each level
	coords []int32 // len(Cores) x len(dists), row-major: unit id per slot per level
}

// NewHierarchy builds the compact hierarchical oracle for the given global
// core set on cluster c, equivalent to NewDistances(c, cores) entry for
// entry but in O(len(cores)) memory. It fails when the cluster's network is
// not hierarchical. The cores slice is not copied; callers must not mutate
// it afterwards.
func NewHierarchy(c *Cluster, cores []int) (*Hierarchy, error) {
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

	type rawLevel struct {
		dist int32
		key  func(core int) int
	}
	raw := []rawLevel{
		{distSameSocket, c.SocketOf},
		{distSameNode, c.NodeOf},
	}
	switch net := c.Net.(type) {
	case nil:
		// Uniform inter-node channel: CoreDistance reports every cross-node
		// pair at a fixed two-hop distance.
		raw = append(raw, rawLevel{distInterNodeOff + distPerHop*2, func(int) int { return 0 }})
	case HierarchicalNetwork:
		prev := 0
		for _, hl := range net.HierLevels() {
			if hl.Hops <= prev {
				return nil, fmt.Errorf("topology: network %q hierarchy levels not ascending", net.Label())
			}
			prev = hl.Hops
			group := hl.GroupOf
			raw = append(raw, rawLevel{
				int32(distInterNodeOff + distPerHop*hl.Hops),
				func(core int) int { return group(c.NodeOf(core)) },
			})
		}
	default:
		return nil, fmt.Errorf("topology: network %q is not hierarchical", c.Net.Label())
	}

	h := &Hierarchy{Cores: cores}
	for _, lv := range raw {
		ids := make([]int32, n)
		seen := make(map[int]int32, 16)
		for s, core := range cores {
			key := lv.key(core)
			id, ok := seen[key]
			if !ok {
				id = int32(len(seen))
				seen[key] = id
			}
			ids[s] = id
		}
		h.dists = append(h.dists, lv.dist)
		h.units = append(h.units, int32(len(seen)))
		h.coords = append(h.coords, ids...)
		if len(seen) == 1 {
			// Every remaining level is unreachable: At resolves here first.
			break
		}
	}
	L := len(h.dists)
	if h.units[L-1] != 1 {
		return nil, fmt.Errorf("topology: network %q hierarchy does not converge to a single root", c.Net.Label())
	}
	// coords was appended level-major; transpose to slot-major so that At
	// touches one contiguous stripe per slot.
	bySlot := make([]int32, n*L)
	for l := 0; l < L; l++ {
		col := h.coords[l*n : (l+1)*n]
		for s := 0; s < n; s++ {
			bySlot[s*L+l] = col[s]
		}
	}
	h.coords = bySlot
	return h, nil
}

// N implements Oracle.
func (h *Hierarchy) N() int { return len(h.Cores) }

// At implements Oracle: the distance of the finest level where the two
// slots share a unit.
func (h *Hierarchy) At(i, j int) int32 {
	if i == j {
		return 0
	}
	L := len(h.dists)
	ci := h.coords[i*L : i*L+L]
	cj := h.coords[j*L : j*L+L]
	for l := 0; l < L; l++ {
		if ci[l] == cj[l] {
			return h.dists[l]
		}
	}
	// Unreachable: the last level has a single unit.
	return h.dists[L-1]
}

// Levels returns the number of hierarchy levels.
func (h *Hierarchy) Levels() int { return len(h.dists) }

// UnitCount returns the number of distinct units at level l.
func (h *Hierarchy) UnitCount(l int) int { return int(h.units[l]) }

// UnitOf returns the unit id of slot s at level l.
func (h *Hierarchy) UnitOf(l, s int) int32 { return h.coords[s*len(h.dists)+l] }

// maxInferLevels bounds the number of distinct distance values a matrix may
// hold before inference gives up. Physical hierarchies have a handful
// (socket, node, and two or three switch tiers); anything beyond this is a
// metric the bucketed kernel cannot represent.
const maxInferLevels = 8

// InferHierarchy reconstructs the hierarchical representation from a dense
// matrix, for matrices that did not come out of NewDistances (persisted
// files, hand-built tables). It succeeds only when the matrix is exactly a
// nested hierarchy — few distinct values whose threshold graphs are
// equivalence relations reproducing every entry — and verifies that
// property over all pairs before returning, so a returned Hierarchy is
// always safe to substitute for the matrix. Non-ultrametric inputs (torus
// distance tables, arbitrary metrics) are rejected.
func InferHierarchy(d *Distances) (*Hierarchy, error) {
	n := d.N()
	if n == 0 {
		return nil, fmt.Errorf("topology: empty distance matrix")
	}

	// Distinct positive values, ascending, bailing out as soon as the count
	// proves the matrix is not a small hierarchy.
	var dists []int32
	for i := 0; i < n; i++ {
		row := d.Row(i)
		for j, v := range row {
			if j == i {
				if v != 0 {
					return nil, fmt.Errorf("topology: nonzero self-distance at slot %d", i)
				}
				continue
			}
			if v <= 0 {
				return nil, fmt.Errorf("topology: non-positive distance at (%d,%d)", i, j)
			}
			k := sort.Search(len(dists), func(k int) bool { return dists[k] >= v })
			if k < len(dists) && dists[k] == v {
				continue
			}
			if len(dists) == maxInferLevels {
				return nil, fmt.Errorf("topology: more than %d distinct distances", maxInferLevels)
			}
			dists = append(dists, 0)
			copy(dists[k+1:], dists[k:])
			dists[k] = v
		}
	}
	if len(dists) == 0 {
		// A single slot: one degenerate all-in-one level.
		return &Hierarchy{Cores: d.Cores, dists: []int32{1}, units: []int32{1}, coords: []int32{0}}, nil
	}

	h := &Hierarchy{Cores: d.Cores}
	L := len(dists)
	coords := make([]int32, n*L)
	for l, v := range dists {
		// Partition slots by the threshold relation "distance <= v". For a
		// hierarchy this is an equivalence; a slot reachable from two
		// different representatives betrays a non-ultrametric metric.
		ids := make([]int32, n)
		for s := range ids {
			ids[s] = -1
		}
		var next int32
		for i := 0; i < n; i++ {
			if ids[i] >= 0 {
				continue
			}
			u := next
			next++
			ids[i] = u
			row := d.Row(i)
			for j := 0; j < n; j++ {
				if row[j] > v || j == i {
					continue
				}
				switch {
				case ids[j] < 0:
					ids[j] = u
				case ids[j] != u:
					return nil, fmt.Errorf("topology: distances are not hierarchical at threshold %d", v)
				}
			}
		}
		for s := 0; s < n; s++ {
			coords[s*L+l] = ids[s]
		}
		h.units = append(h.units, next)
	}
	if h.units[L-1] != 1 {
		return nil, fmt.Errorf("topology: largest distance %d does not join all slots", dists[L-1])
	}
	h.dists = dists
	h.coords = coords

	// Full verification: the reconstruction must reproduce every matrix
	// entry, otherwise the bucketed kernel would silently diverge from the
	// reference scan. Rows verify independently, so fan out.
	if err := parallelRows(n, func(i int) error {
		row := d.Row(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if h.At(i, j) != row[j] {
				return fmt.Errorf("topology: inferred hierarchy disagrees with matrix at (%d,%d): %d vs %d",
					i, j, h.At(i, j), row[j])
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return h, nil
}

// parallelRows runs fn(i) for every row index in [0, n) across GOMAXPROCS
// workers, returning the first error observed. Small inputs run inline.
func parallelRows(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < 256 || workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	const batch = 32
	var (
		next    atomic.Int64
		failed  atomic.Bool
		firstMu sync.Mutex
		first   error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				base := int(next.Add(batch)) - batch
				if base >= n {
					return
				}
				end := base + batch
				if end > n {
					end = n
				}
				for i := base; i < end; i++ {
					if err := fn(i); err != nil {
						firstMu.Lock()
						if first == nil {
							first = err
						}
						firstMu.Unlock()
						failed.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return first
}
