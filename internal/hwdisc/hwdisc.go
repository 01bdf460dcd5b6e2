// Package hwdisc simulates the physical-distance discovery step of the
// paper's framework. The original system extracts intra-node distances with
// hwloc and inter-node distances with InfiniBand subnet tools, once at
// startup, and saves the resulting matrix (paper Section IV and Fig. 7a).
//
// This reproduction computes the same matrix from the topology model and
// charges a calibrated per-query cost, so the one-time discovery overhead of
// Fig. 7a can be reproduced without the actual tools. The cost is *returned*
// rather than slept.
package hwdisc

import (
	"fmt"
	"os"
	"time"

	"repro/internal/topology"
)

// CostModel prices the discovery queries.
type CostModel struct {
	// Base covers process bring-up and tool initialisation.
	Base time.Duration
	// PerCore is the hwloc cost of resolving one core's position in the
	// intra-node hierarchy (cpuset + object walk).
	PerCore time.Duration
	// PerNode is the InfiniBand cost of resolving one node's LID and its
	// routes (ibnetdiscover / ibtracert amortised per node).
	PerNode time.Duration
}

// DefaultCostModel is calibrated so that 4096 processes on 512 GPC nodes
// cost ≈3.3 s, scaling linearly in the process count as in paper Fig. 7a
// (1024 → ~0.8 s, 2048 → ~1.7 s, 4096 → ~3.3 s).
func DefaultCostModel() CostModel {
	return CostModel{
		Base:    50 * time.Millisecond,
		PerCore: 600 * time.Microsecond,
		PerNode: 1500 * time.Microsecond,
	}
}

// Result is the output of Discover.
type Result struct {
	// Distances is the core-to-core matrix over the job's cores, indexed by
	// initial rank — the input of every mapping heuristic.
	Distances *topology.Distances
	// Elapsed is the modelled one-time discovery cost.
	Elapsed time.Duration
}

// Cost validates the placement of the p processes of layout on cluster c
// and returns the modelled one-time discovery cost: one hwloc query per
// process plus one InfiniBand query per distinct node. It builds no matrix,
// so callers that map on a compact oracle pay only O(p) here.
func Cost(c *topology.Cluster, layout []int, cm CostModel) (time.Duration, error) {
	if c == nil {
		return 0, fmt.Errorf("hwdisc: nil cluster")
	}
	if err := topology.ValidateLayout(c, layout); err != nil {
		return 0, err
	}
	if len(layout) == 0 {
		return 0, fmt.Errorf("hwdisc: empty layout")
	}
	seen := make([]bool, c.Nodes)
	nodes := 0
	for _, core := range layout {
		if node := c.NodeOf(core); !seen[node] {
			seen[node] = true
			nodes++
		}
	}
	return cm.Base +
		time.Duration(len(layout))*cm.PerCore +
		time.Duration(nodes)*cm.PerNode, nil
}

// Discover extracts the distance matrix for the p processes placed by
// layout on cluster c and returns it with the modelled discovery time.
func Discover(c *topology.Cluster, layout []int, cm CostModel) (*Result, error) {
	elapsed, err := Cost(c, layout, cm)
	if err != nil {
		return nil, err
	}
	d, err := topology.NewDistances(c, layout)
	if err != nil {
		return nil, err
	}
	return &Result{Distances: d, Elapsed: elapsed}, nil
}

// LoadOrDiscover implements the paper's "extracted once, and saved for
// future references" workflow (Section IV): if path holds a valid distance
// matrix matching the layout it is loaded with zero modelled discovery
// cost; otherwise the distances are discovered, saved to path, and returned
// with the full one-time cost. A corrupt or mismatched cache is discovered
// over, not trusted.
func LoadOrDiscover(path string, c *topology.Cluster, layout []int, cm CostModel) (*Result, error) {
	if f, err := os.Open(path); err == nil {
		d, rerr := topology.ReadDistances(f)
		f.Close()
		if rerr == nil && coresMatch(d.Cores, layout) {
			return &Result{Distances: d, Elapsed: 0}, nil
		}
	}
	res, err := Discover(c, layout, cm)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("hwdisc: saving distance cache: %w", err)
	}
	defer f.Close()
	if _, err := res.Distances.WriteTo(f); err != nil {
		return nil, fmt.Errorf("hwdisc: writing distance cache: %w", err)
	}
	return res, nil
}

// coresMatch reports whether the cached core set equals the layout.
func coresMatch(cores, layout []int) bool {
	if len(cores) != len(layout) {
		return false
	}
	for i := range cores {
		if cores[i] != layout[i] {
			return false
		}
	}
	return true
}
