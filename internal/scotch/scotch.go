// Package scotch implements a general-purpose static mapping baseline in the
// style of the Scotch library (Pellegrini & Roman, HPCN 1996): dual
// recursive bipartitioning of a guest graph (the communication pattern) onto
// a host architecture (the job's cores and their physical distances).
//
// The paper compares its fine-tuned heuristics against Scotch on both
// mapping quality (Figs. 3–6) and overhead (Fig. 7b). This package plays
// that role: it is deliberately a *general* mapper that knows nothing about
// allgather — it consumes whatever weighted pattern graph package patterns
// produces, recursively bisecting the host by physical distance and the
// guest by weighted min-cut, and assigning the halves to each other.
package scotch

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Options tunes the mapper. It has no fields: the refinement's bounds are
// graph.Bisector's constants. Callers pass nil.
type Options struct{}

// Map assigns the vertices of guest (processes, indexed by rank in the
// collective's pattern) to the slots of the host distance oracle d (cores,
// indexed by initial rank), returning the result in the same Mapping form
// the fine-tuned heuristics produce: M[rank] = slot.
//
// The guest graph and host must have the same cardinality (one process per
// core, as in the paper's dedicated allocations).
func Map(guest *graph.Graph, d topology.Oracle, opts *Options) (core.Mapping, error) {
	return MapContext(nil, guest, d, opts)
}

// MapContext is Map with context cancellation checked at every level of the
// dual recursive bipartitioning, so a deadline interrupts the mapper between
// bisections. A nil context disables the checks.
func MapContext(ctx context.Context, guest *graph.Graph, d topology.Oracle, opts *Options) (core.Mapping, error) {
	if guest == nil || d == nil {
		return nil, fmt.Errorf("scotch: nil guest or host")
	}
	n := guest.N()
	if n != d.N() {
		return nil, fmt.Errorf("scotch: guest has %d vertices, host %d slots", n, d.N())
	}
	if n == 0 {
		return nil, fmt.Errorf("scotch: empty mapping problem")
	}
	m := make(core.Mapping, n)
	verts := make([]int, n)
	slots := make([]int, n)
	for i := 0; i < n; i++ {
		verts[i], slots[i] = i, i
	}
	start := time.Now()
	if err := mapRec(ctx, graph.NewBisector(guest), d, verts, slots, m); err != nil {
		core.RecordMapping("scotch", start, 0, 0, err)
		return nil, err
	}
	core.RecordMapping("scotch", start, n, 0, nil)
	return m, nil
}

// mapRec performs one level of dual recursive bipartitioning: split the host
// slots into two physically cohesive halves, split the guest vertices into
// matching-size halves of minimal cut weight, pair them up and recurse.
func mapRec(ctx context.Context, bis *graph.Bisector, d topology.Oracle, verts, slots []int, m core.Mapping) error {
	if len(verts) != len(slots) {
		panic("scotch: internal imbalance between guest and host halves")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("scotch: mapping interrupted: %w", err)
		}
	}
	switch len(verts) {
	case 0:
		return nil
	case 1:
		m[verts[0]] = slots[0]
		return nil
	}
	h0, h1 := bisectHost(d, slots)
	g0, g1 := bis.Bisect(verts, len(h0))
	if err := mapRec(ctx, bis, d, g0, h0, m); err != nil {
		return err
	}
	return mapRec(ctx, bis, d, g1, h1, m)
}

// bisectHost splits a slot set into two halves that are physically cohesive:
// it takes the slot farthest from the first as a pole, then assigns the
// ceil(k/2) slots closest to the pole to the first half. Closeness to a pole
// follows the machine hierarchy (socket < node < leaf < ...), so the
// halves align with physical enclosures exactly as an architecture
// decomposition would.
func bisectHost(d topology.Oracle, slots []int) (a, b []int) {
	k := len(slots)
	// Pole: a slot far from slots[0] (an exact most-distant pair is
	// quadratic and unnecessary on hierarchical metrics).
	p0 := farthestFrom(d, slots, slots[0])
	type slotDist struct {
		slot int
		dist int32
	}
	byDist := make([]slotDist, k)
	for i, s := range slots {
		byDist[i] = slotDist{s, d.At(p0, s)}
	}
	// Deterministic selection of the sizeA closest slots to p0: sort by
	// (distance, slot index).
	slices.SortFunc(byDist, func(x, y slotDist) int {
		if c := cmp.Compare(x.dist, y.dist); c != 0 {
			return c
		}
		return cmp.Compare(x.slot, y.slot)
	})
	sizeA := (k + 1) / 2
	a = make([]int, 0, sizeA)
	b = make([]int, 0, k-sizeA)
	for i, sd := range byDist {
		if i < sizeA {
			a = append(a, sd.slot)
		} else {
			b = append(b, sd.slot)
		}
	}
	return a, b
}

// farthestFrom returns the slot in slots with maximum distance from ref
// (lowest index on ties).
func farthestFrom(d topology.Oracle, slots []int, ref int) int {
	best, bestDist := slots[0], int32(-1)
	for _, s := range slots {
		if dist := d.At(ref, s); dist > bestDist {
			best, bestDist = s, dist
		}
	}
	return best
}
