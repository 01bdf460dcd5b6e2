package core

import (
	"math/rand"

	"repro/internal/topology"
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

// bucketKernel is the find-closest engine over the levels of a Distances
// oracle: two slots are at the distance of the finest level where they share
// a unit, so the free slots closest to ref are exactly the free members of
// ref's unit at the finest level whose unit still has any. When even ref's
// last-level unit is full, the oracle's node table ranks the other
// last-level units. The kernel keeps, per (level, unit), the members in
// ascending slot order, a live free count, and a cursor to the lowest
// possibly-free member. A placement probes at most #levels units, or the m
// last-level units when it crosses nodes of a torus, and the cursors advance
// monotonically: O(levels) per placement, or O(m), where a scan of the free
// list is O(p).
type bucketKernel struct {
	d        *topology.Distances
	levels   int
	members  [][]int32 // [level] unit-segmented member slots, ascending
	start    [][]int32 // [level][unit] -> segment start in members (len = units+1)
	cursor   [][]int32 // [level][unit] -> first possibly-free member offset
	freeCnt  [][]int32 // [level][unit] -> live free members
	consumed []bool
	rnd      *rand.Rand
	scanned  *int64
}

func newBucketKernel(d *topology.Distances, rnd *rand.Rand, scanned *int64) kernel {
	n := d.N()
	L := d.Levels()
	k := &bucketKernel{
		d:        d,
		levels:   L,
		members:  make([][]int32, L),
		start:    make([][]int32, L),
		cursor:   make([][]int32, L),
		freeCnt:  make([][]int32, L),
		consumed: make([]bool, n),
		rnd:      rnd,
		scanned:  scanned,
	}
	unitOf := make([]int32, n) // one level's column of the oracle's slot-major coordinates
	for l := 0; l < L; l++ {
		U := d.UnitCount(l)
		counts := make([]int32, U)
		for s := range unitOf {
			u := d.UnitOf(l, s)
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
		for s, u := range unitOf { // ascending slot order within each unit
			members[fill[u]] = int32(s)
			fill[u]++
		}
		cursor := make([]int32, U)
		copy(cursor, start[:U])
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
		k.freeCnt[l][k.d.UnitOf(l, slot)]--
	}
}

func (k *bucketKernel) takeClosest(refSlot int) int {
	// Any free member of ref's finest non-full unit is at the minimum
	// distance: finer units of ref hold no free slots, so none of these
	// members shares a finer level with ref. When every unit of ref is full,
	// the free slots lie in other last-level units, which only the node
	// table tells apart.
	l, u := 0, int32(0)
	for ; l < k.levels; l++ {
		if u = k.d.UnitOf(l, refSlot); k.freeCnt[l][u] > 0 {
			break
		}
	}
	if l == k.levels {
		l--
		u = k.closestUnit(k.d.UnitOf(l, refSlot))
	}
	var slot int32
	if k.rnd == nil {
		// The lowest free member: the scan's lowest-slot-index tie break.
		slot = k.lowestFree(l, u)
	} else {
		// Reservoir-sample uniformly among the free members. The random
		// stream is consumed in a different order than a free-list scan's,
		// so randomized runs are uniform over the same tie set but not
		// bit-identical to one.
		seg := k.members[l][k.start[l][u]:k.start[l][u+1]]
		*k.scanned += int64(len(seg))
		nBest := 0
		for _, s := range seg {
			if k.consumed[s] {
				continue
			}
			nBest++
			if k.rnd.Intn(nBest) == 0 {
				slot = s
			}
		}
	}
	k.takeSlot(int(slot))
	return int(slot)
}

// lowestFree returns the lowest free member of unit u at level l, which has
// one. The cursor only ever moves forward past consumed members, so the
// advance is amortised O(1) per query.
func (k *bucketKernel) lowestFree(l int, u int32) int32 {
	c := k.cursor[l][u]
	members := k.members[l]
	for k.consumed[members[c]] {
		c++
	}
	*k.scanned += int64(c-k.cursor[l][u]) + 1
	k.cursor[l][u] = c
	return members[c]
}

// closestUnit returns the last-level unit with a free slot nearest to unit
// ref in the node table. Ties go to the unit holding the lowest free slot,
// or, with a Rand, to a unit drawn with probability proportional to its free
// slots, so that takeClosest's draw inside it is uniform over the whole tie
// set.
func (k *bucketKernel) closestUnit(ref int32) int32 {
	last := k.levels - 1
	best, bestDist, bestSlot, tied := int32(-1), int32(0), int32(0), 0
	for u, free := range k.freeCnt[last] {
		if free == 0 {
			continue
		}
		*k.scanned++
		dist := k.d.TableAt(ref, int32(u))
		switch {
		case best >= 0 && dist > bestDist:
		case k.rnd != nil:
			if best < 0 || dist < bestDist {
				best, bestDist, tied = int32(u), dist, int(free)
			} else if tied += int(free); k.rnd.Intn(tied) < int(free) {
				best = int32(u)
			}
		default:
			if slot := k.lowestFree(last, int32(u)); best < 0 || dist < bestDist || slot < bestSlot {
				best, bestDist, bestSlot = int32(u), dist, slot
			}
		}
	}
	if best < 0 {
		// Unreachable: callers only query while unmapped ranks remain.
		panic("core: no free slot while ranks remain")
	}
	return best
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
