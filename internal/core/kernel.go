package core

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
)

// kernelMode is the test hook that forces a find-closest kernel
// (Options.kernel). Production leaves it at kernelAuto: the bucketed kernel
// whenever the distance source has a hierarchical view (constructed or
// inferred), the generic scan otherwise.
type kernelMode uint8

const (
	kernelAuto kernelMode = iota
	// kernelScan forces the reference linear scan over the free list.
	kernelScan
	// kernelBucketed forces the hierarchy-bucketed kernel; mapping fails
	// when the distance source is not hierarchical.
	kernelBucketed
)

// kernel is the find-closest engine of Algorithm 1: it owns the free-slot
// set and answers "the free slot closest to refSlot" (consuming it) as well
// as direct consumption of pre-pinned slots.
type kernel interface {
	// takeClosest returns and consumes the free slot with minimum distance
	// from refSlot, breaking ties toward the lowest slot index (or uniformly
	// at random when the mapper carries a Rand).
	takeClosest(refSlot int) int
	// takeSlot consumes a specific slot the caller knows to be free.
	takeSlot(slot int)
}

// newKernel picks the kernel for a distance oracle — bucketed exactly when a
// hierarchy exists, unless the test hook forces one — and reports the choice
// on the kernel-selection metric.
func newKernel(o topology.Oracle, mode kernelMode, rnd *rand.Rand, scanned *int64) (kernel, error) {
	var h *topology.Hierarchy
	switch src := o.(type) {
	case *topology.Hierarchy:
		h = src
	case *topology.Distances:
		if mode != kernelScan {
			h = src.Hierarchy()
		}
	}
	if mode == kernelBucketed && h == nil {
		return nil, fmt.Errorf("core: bucketed kernel requires a hierarchical distance source")
	}
	if h != nil && mode != kernelScan {
		kernelSelections.With("kernel", "bucketed").Inc()
		return newBucketKernel(h, rnd, scanned), nil
	}
	kernelSelections.With("kernel", "scan").Inc()
	return newScanKernel(o, rnd, scanned), nil
}

// scanKernel is the reference implementation: a compact unordered free list
// scanned linearly per query, O(free) per placement. A slot→free-index
// inverse makes direct consumption O(1) (the pre-pinned rank-0 assignment
// used to pay a full scan here).
type scanKernel struct {
	o        topology.Oracle
	d        *topology.Distances // non-nil when o is dense: row fast path
	freeList []int32             // slots not yet assigned, unordered
	freePos  []int32             // slot -> index in freeList, -1 once consumed
	rnd      *rand.Rand
	scanned  *int64
}

func newScanKernel(o topology.Oracle, rnd *rand.Rand, scanned *int64) *scanKernel {
	n := o.N()
	k := &scanKernel{
		o:        o,
		rnd:      rnd,
		scanned:  scanned,
		freeList: make([]int32, n),
		freePos:  make([]int32, n),
	}
	k.d, _ = o.(*topology.Distances)
	for i := range k.freeList {
		k.freeList[i] = int32(i)
		k.freePos[i] = int32(i)
	}
	return k
}

func (k *scanKernel) takeSlot(slot int) {
	k.removeFree(int(k.freePos[slot]))
}

// removeFree deletes free-list entry i by swapping in the tail, keeping the
// slot→index inverse in step.
func (k *scanKernel) removeFree(i int) {
	last := len(k.freeList) - 1
	slot := k.freeList[i]
	moved := k.freeList[last]
	k.freeList[i] = moved
	k.freePos[moved] = int32(i)
	k.freePos[slot] = -1
	k.freeList = k.freeList[:last]
}

// takeClosest implements find_closest_to(ref, D) by scanning the free list.
// Ties go to the lowest slot index, or are reservoir-sampled when rnd is
// set — the exact semantics (including random-stream consumption order) of
// the original mapper scan.
func (k *scanKernel) takeClosest(refSlot int) int {
	*k.scanned += int64(len(k.freeList))
	best, bestIdx, bestDist, nBest := int32(-1), -1, int32(0), 0
	if k.d != nil {
		row := k.d.Row(refSlot)
		for i, s := range k.freeList {
			dist := row[s]
			switch {
			case best < 0 || dist < bestDist || (dist == bestDist && k.rnd == nil && s < best):
				best, bestIdx, bestDist, nBest = s, i, dist, 1
			case dist == bestDist && k.rnd != nil:
				// Reservoir-sample among the minimal slots.
				nBest++
				if k.rnd.Intn(nBest) == 0 {
					best, bestIdx = s, i
				}
			}
		}
	} else {
		for i, s := range k.freeList {
			dist := k.o.At(refSlot, int(s))
			switch {
			case best < 0 || dist < bestDist || (dist == bestDist && k.rnd == nil && s < best):
				best, bestIdx, bestDist, nBest = s, i, dist, 1
			case dist == bestDist && k.rnd != nil:
				nBest++
				if k.rnd.Intn(nBest) == 0 {
					best, bestIdx = s, i
				}
			}
		}
	}
	if best < 0 {
		// Unreachable: callers only query while unmapped ranks remain.
		panic("core: no free slot while ranks remain")
	}
	k.removeFree(bestIdx)
	return int(best)
}

// bucketKernel exploits the hierarchical structure of the distance source:
// every slot pair's distance is the distance of the finest hierarchy level
// where the pair shares a unit, so the free slots closest to ref are
// exactly the free members of ref's unit at the finest level whose unit
// still has any. The kernel keeps, per (level, unit), the members in
// ascending slot order, a live free count, and a cursor to the lowest
// possibly-free member; a query probes at most #levels units and the
// cursors advance monotonically, so the whole mapping run does
// O(p·levels) work where the scan kernel does O(p²).
type bucketKernel struct {
	levels   int
	unitOf   [][]int32 // [level][slot] -> unit id
	members  [][]int32 // [level] unit-segmented member slots, ascending
	start    [][]int32 // [level][unit] -> segment start in members (len = units+1)
	cursor   [][]int32 // [level][unit] -> first possibly-free member offset
	freeCnt  [][]int32 // [level][unit] -> live free members
	consumed []bool
	rnd      *rand.Rand
	scanned  *int64
}

func newBucketKernel(h *topology.Hierarchy, rnd *rand.Rand, scanned *int64) *bucketKernel {
	n := h.N()
	L := h.Levels()
	k := &bucketKernel{
		levels:   L,
		unitOf:   make([][]int32, L),
		members:  make([][]int32, L),
		start:    make([][]int32, L),
		cursor:   make([][]int32, L),
		freeCnt:  make([][]int32, L),
		consumed: make([]bool, n),
		rnd:      rnd,
		scanned:  scanned,
	}
	for l := 0; l < L; l++ {
		U := h.UnitCount(l)
		unitOf := make([]int32, n)
		counts := make([]int32, U)
		for s := 0; s < n; s++ {
			u := h.UnitOf(l, s)
			unitOf[s] = u
			counts[u]++
		}
		start := make([]int32, U+1)
		for u := 0; u < U; u++ {
			start[u+1] = start[u] + counts[u]
		}
		members := make([]int32, n)
		fill := make([]int32, U)
		copy(fill, start[:U])
		for s := 0; s < n; s++ { // ascending slot order within each unit
			u := unitOf[s]
			members[fill[u]] = int32(s)
			fill[u]++
		}
		cursor := make([]int32, U)
		copy(cursor, start[:U])
		k.unitOf[l] = unitOf
		k.members[l] = members
		k.start[l] = start
		k.cursor[l] = cursor
		k.freeCnt[l] = counts
	}
	return k
}

func (k *bucketKernel) takeSlot(slot int) {
	k.consumed[slot] = true
	for l := 0; l < k.levels; l++ {
		k.freeCnt[l][k.unitOf[l][slot]]--
	}
}

func (k *bucketKernel) takeClosest(refSlot int) int {
	for l := 0; l < k.levels; l++ {
		u := k.unitOf[l][refSlot]
		if k.freeCnt[l][u] == 0 {
			continue
		}
		// Any free member of this unit is at the minimum distance: finer
		// units of ref hold no free slots, so none of these members shares
		// a finer level with ref.
		seg := k.members[l][k.start[l][u]:k.start[l][u+1]]
		if k.rnd == nil {
			// Lowest free slot of the unit — identical to the scan kernel's
			// lowest-slot-index tie break. The cursor only ever moves
			// forward past consumed members, so the advance is amortised
			// O(1) per query.
			c := int(k.cursor[l][u] - k.start[l][u])
			examined := int64(1)
			for k.consumed[seg[c]] {
				c++
				examined++
			}
			k.cursor[l][u] = k.start[l][u] + int32(c)
			*k.scanned += examined
			slot := int(seg[c])
			k.takeSlot(slot)
			return slot
		}
		// Reservoir-sample uniformly among the free members. The random
		// stream is consumed in a different order than the scan kernel's
		// free-list traversal, so randomized runs are uniform over the same
		// tie set but not bit-identical across kernels.
		*k.scanned += int64(len(seg))
		pick, nBest := int32(-1), 0
		for _, s := range seg {
			if k.consumed[s] {
				continue
			}
			nBest++
			if k.rnd.Intn(nBest) == 0 {
				pick = s
			}
		}
		k.takeSlot(int(pick))
		return int(pick)
	}
	panic("core: no free slot while ranks remain")
}

// maskFrontier tracks, per restart mask, the mapped ranks that may still
// have an unmapped partner, replacing the O(p·log p) full rescans of the
// RDMH/BKMH non-power-of-two fallback with lazy min-heaps. A rank is pushed
// to a mask's heap when it gets mapped and its partner is still unmapped;
// since the mapped set only grows, every rank that is a usable reference at
// restart time is guaranteed to be in the heap, and stale entries (partner
// mapped since) are discarded lazily at pop time. next therefore returns
// exactly what the old rescan did: the largest mask with a usable
// reference, and the smallest such rank.
type maskFrontier struct {
	masks   []int     // descending: top, top/2, ..., 1
	heaps   [][]int32 // min-heap of candidate ranks per mask
	partner func(r, mask int) int
}

// newMaskFrontier builds a frontier over masks top, top/2, ..., 1. partner
// returns the rank r communicates with under a mask, or -1 when that pairing
// does not exist (XOR partners beyond p-1).
func newMaskFrontier(top int, partner func(r, mask int) int) *maskFrontier {
	f := &maskFrontier{partner: partner}
	for i := top; i > 0; i >>= 1 {
		f.masks = append(f.masks, i)
	}
	f.heaps = make([][]int32, len(f.masks))
	return f
}

// push registers a newly mapped rank as a restart candidate for every mask
// whose partner is currently unmapped.
func (f *maskFrontier) push(r int, mapped func(int) bool) {
	for k, mask := range f.masks {
		if pr := f.partner(r, mask); pr >= 0 && !mapped(pr) {
			f.heaps[k] = heapPush(f.heaps[k], int32(r))
		}
	}
}

// next returns the restart reference: the smallest mapped rank with an
// unmapped partner under the largest possible mask.
func (f *maskFrontier) next(mapped func(int) bool) (ref, mask int) {
	for k, msk := range f.masks {
		h := f.heaps[k]
		for len(h) > 0 {
			r := int(h[0])
			if pr := f.partner(r, msk); pr >= 0 && !mapped(pr) {
				f.heaps[k] = h
				return r, msk
			}
			// Partner mapped since the push — dead forever, drop it.
			h = heapPop(h)
		}
		f.heaps[k] = h
	}
	// Unreachable while unmapped ranks remain: rank 0 is mapped and the
	// partner graph over 0..p-1 is connected for both XOR masks and
	// additive strides.
	panic("core: no reference with free partner while ranks remain")
}

// heapPush inserts v into the int32 min-heap h.
func heapPush(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPop removes the minimum of the int32 min-heap h.
func heapPop(h []int32) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && h[l] < h[s] {
			s = l
		}
		if r < len(h) && h[r] < h[s] {
			s = r
		}
		if s == i {
			return h
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}
