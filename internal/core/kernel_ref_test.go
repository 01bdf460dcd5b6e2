package core

import (
	"math/rand"

	"repro/internal/topology"
)

// scanOpts runs a heuristic on the reference kernel below.
var scanOpts = &Options{newKernel: func(d *topology.Distances, rnd *rand.Rand, scanned *int64) kernel {
	return newScanKernel(d, rnd, scanned)
}}

// scanKernel is the reference implementation: a compact unordered free list
// scanned linearly per query, O(free) per placement. A slot→free-index
// inverse makes direct consumption O(1) (the pre-pinned rank-0 assignment
// used to pay a full scan here).
type scanKernel struct {
	o        topology.Oracle
	freeList []int32 // slots not yet assigned, unordered
	freePos  []int32 // slot -> index in freeList, -1 once consumed
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
	for i, s := range k.freeList {
		dist := k.o.At(refSlot, int(s))
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
	if best < 0 {
		// Unreachable: callers only query while unmapped ranks remain.
		panic("core: no free slot while ranks remain")
	}
	k.removeFree(bestIdx)
	return int(best)
}
