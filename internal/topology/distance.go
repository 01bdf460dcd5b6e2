package topology

import (
	"fmt"
	"sync"
)

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

// Distances is a symmetric core-to-core distance matrix over an arbitrary
// set of cores. Entry (i, j) is the distance between Cores[i] and Cores[j].
// The matrix is stored flattened row-major in D.
//
// In the paper's framework the distance matrix is extracted once at job
// start (with hwloc and InfiniBand tools) and saved; the mapping heuristics
// consume only this matrix, never the topology itself.
type Distances struct {
	Cores []int   // global core index of each row/column
	D     []int32 // len = len(Cores)^2, row-major

	// hier caches the compact hierarchical view of the matrix: attached at
	// construction when the cluster's network is hierarchical, otherwise
	// inferred lazily (and at most once) from the matrix values by
	// Hierarchy(). nil after hierDone means the matrix is not hierarchical.
	hier     *Hierarchy
	hierDone bool
	hierOnce sync.Once
}

// NewDistances computes the distance matrix for the given global core set on
// cluster c. The cores slice is not copied; callers must not mutate it
// afterwards.
//
// Inter-node distance depends only on the two nodes, so Network.Hops is
// asked once per ordered pair of the job's distinct nodes (m^2 calls, not
// p^2) and the rows are filled by lookup in that table.
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
	d := &Distances{Cores: cores, D: make([]int32, n*n)}

	// Dense index of the job's distinct nodes, in first-seen order, through
	// a flat slice over the cluster's nodes.
	indexOf := make([]int32, c.Nodes)
	for i := range indexOf {
		indexOf[i] = -1
	}
	var nodes []int
	nodeIdx := make([]int32, n) // slot -> dense node index
	sockOf := make([]int32, n)
	for s, core := range cores {
		node := c.NodeOf(core)
		if indexOf[node] < 0 {
			indexOf[node] = int32(len(nodes))
			nodes = append(nodes, node)
		}
		nodeIdx[s] = indexOf[node]
		sockOf[s] = int32(c.SocketOf(core))
	}
	m := len(nodes)

	// table[a*m+b] is the distance between cores on distinct nodes a and b;
	// the diagonal holds the same-node distance, which the row fill below
	// refines to same-socket and self.
	table := make([]int32, m*m)
	for a, na := range nodes {
		row := table[a*m : (a+1)*m]
		for b, nb := range nodes {
			switch {
			case a == b:
				row[b] = distSameNode
			case c.Net == nil:
				row[b] = distInterNodeOff + distPerHop*2
			default:
				row[b] = int32(distInterNodeOff + distPerHop*c.Net.Hops(na, nb))
			}
		}
	}

	// Slots grouped by node (counting sort), for the same-node patch.
	start := make([]int32, m+1)
	for _, a := range nodeIdx {
		start[a+1]++
	}
	for a := 0; a < m; a++ {
		start[a+1] += start[a]
	}
	byNode := make([]int32, n)
	fill := append([]int32(nil), start[:m]...)
	for s, a := range nodeIdx {
		byNode[fill[a]] = int32(s)
		fill[a]++
	}

	// Rows are independent, so fill them across GOMAXPROCS workers.
	parallelRows(n, func(i int) error {
		row := d.D[i*n : (i+1)*n]
		a := nodeIdx[i]
		fromA := table[int(a)*m : (int(a)+1)*m]
		for j, b := range nodeIdx {
			row[j] = fromA[b]
		}
		for _, j := range byNode[start[a]:start[a+1]] {
			if sockOf[j] == sockOf[i] {
				row[j] = distSameSocket
			}
		}
		row[i] = 0
		return nil
	})
	// Attach the compact view up front when the network supports it: the
	// heuristics then pick the bucketed kernel without a lazy inference pass.
	if h, err := NewHierarchy(c, cores); err == nil {
		d.hier, d.hierDone = h, true
		d.hierOnce.Do(func() {})
	}
	return d, nil
}

// Hierarchy returns the compact hierarchical view of the matrix, or nil when
// the matrix is not a nested hierarchy (tori, arbitrary metrics). For
// matrices built by NewDistances on hierarchical clusters the view is
// attached at construction; otherwise the first call runs a full
// InferHierarchy pass over the matrix and the result — either way — is
// cached. Safe for concurrent use provided no caller mutates D.
func (d *Distances) Hierarchy() *Hierarchy {
	d.hierOnce.Do(func() {
		if d.hierDone {
			return
		}
		d.hierDone = true
		if h, err := InferHierarchy(d); err == nil {
			d.hier = h
		}
	})
	return d.hier
}

// N returns the number of cores covered by the matrix.
func (d *Distances) N() int { return len(d.Cores) }

// At returns the distance between the i-th and j-th covered cores.
func (d *Distances) At(i, j int) int32 { return d.D[i*len(d.Cores)+j] }

// Row returns the i-th row of the matrix (aliased, not copied).
func (d *Distances) Row(i int) []int32 {
	n := len(d.Cores)
	return d.D[i*n : (i+1)*n]
}

// Validate checks the matrix invariants the heuristics rely on: square
// shape, zero diagonal, symmetry and non-negativity.
func (d *Distances) Validate() error {
	n := len(d.Cores)
	if len(d.D) != n*n {
		return fmt.Errorf("topology: distance matrix has %d entries for %d cores", len(d.D), n)
	}
	for i := 0; i < n; i++ {
		if d.At(i, i) != 0 {
			return fmt.Errorf("topology: nonzero self-distance at core %d", i)
		}
		for j := i + 1; j < n; j++ {
			switch {
			case d.At(i, j) != d.At(j, i):
				return fmt.Errorf("topology: asymmetric distance (%d,%d): %d vs %d", i, j, d.At(i, j), d.At(j, i))
			case d.At(i, j) <= 0:
				return fmt.Errorf("topology: non-positive distance %d between distinct cores %d,%d", d.At(i, j), i, j)
			}
		}
	}
	return nil
}
