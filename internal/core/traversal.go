package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/topology"
)

// Traversal selects the order in which BBMH visits the binomial tree — the
// design choice paper Section V-A3 discusses. The paper adopts
// SmallerSubtreeFirst; the alternatives are kept for the ablation study.
type Traversal uint8

const (
	// SmallerSubtreeFirst is the paper's variation of depth-first
	// traversal: children with smaller subtrees are visited (and therefore
	// placed) first, prioritising the numerous pairwise communications of
	// the later broadcast stages.
	SmallerSubtreeFirst Traversal = iota
	// LargerSubtreeFirst visits children with larger subtrees first — the
	// rationale of Subramoni et al.'s network-aware broadcast, where ranks
	// that many others depend on get priority.
	LargerSubtreeFirst
	// BreadthFirst maps the tree level by level.
	BreadthFirst
)

// String implements fmt.Stringer.
func (t Traversal) String() string {
	switch t {
	case SmallerSubtreeFirst:
		return "smaller-subtree-first"
	case LargerSubtreeFirst:
		return "larger-subtree-first"
	case BreadthFirst:
		return "breadth-first"
	default:
		return fmt.Sprintf("Traversal(%d)", uint8(t))
	}
}

// BBMHWithTraversal is BBMH with a selectable tree traversal order. BBMH
// itself is BBMHWithTraversal(..., SmallerSubtreeFirst).
func BBMHWithTraversal(d *topology.Distances, opts *Options, tr Traversal) (Mapping, error) {
	return BBMHWithTraversalOracle(nil, d, opts, tr)
}

// BBMHWithTraversalOracle is BBMHWithTraversal over an arbitrary distance
// oracle.
func BBMHWithTraversalOracle(ctx context.Context, o topology.Oracle, opts *Options, tr Traversal) (m Mapping, err error) {
	mp, err := newMapper(o, opts)
	if err != nil {
		return nil, err
	}
	defer instrumentMapping("bbmh", time.Now(), mp, &err)
	mp.ctx = ctx
	p := o.N()
	switch tr {
	case SmallerSubtreeFirst, LargerSubtreeFirst:
		var rec func(r, span int) error
		rec = func(r, span int) error {
			// Valid child offsets of r: powers of two below span.
			offs := make([]int, 0, 32)
			for i := 1; i < span && r&i == 0; i <<= 1 {
				if r+i < p {
					offs = append(offs, i)
				}
			}
			if tr == LargerSubtreeFirst {
				for l, h := 0, len(offs)-1; l < h; l, h = l+1, h-1 {
					offs[l], offs[h] = offs[h], offs[l]
				}
			}
			for _, i := range offs {
				if err := mp.cancelled(); err != nil {
					return err
				}
				child := r + i
				mp.placeNear(child, r)
				if err := rec(child, i); err != nil {
					return err
				}
			}
			return nil
		}
		span := 1
		for span < p {
			span <<= 1
		}
		if err := rec(0, span); err != nil {
			return nil, err
		}
	case BreadthFirst:
		queue := []int{0}
		for len(queue) > 0 {
			if err := mp.cancelled(); err != nil {
				return nil, err
			}
			r := queue[0]
			queue = queue[1:]
			for i := 1; i < p && r&i == 0; i <<= 1 {
				child := r + i
				if child >= p {
					break
				}
				mp.placeNear(child, r)
				queue = append(queue, child)
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown traversal %v", tr)
	}
	if mp.left != 0 {
		return nil, fmt.Errorf("core: traversal %v left %d ranks unmapped", tr, mp.left)
	}
	return mp.m, nil
}
