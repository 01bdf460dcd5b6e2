package core

import (
	"context"
	"time"

	"repro/internal/topology"
)

// BKMH is a mapping heuristic for the Bruck allgather communication pattern
// — the paper's first future-work item ("we intend to extend our heuristics
// to other allgather algorithms such as Bruck"), implemented here following
// the same design recipe as RDMH.
//
// At stage s of the Bruck algorithm, rank i sends min(2^s, p-2^s) blocks to
// rank (i - 2^s) mod p and receives as many from (i + 2^s) mod p, so message
// volume grows toward the later stages just as in recursive doubling — but
// over additive strides instead of XOR masks. BKMH therefore walks stages
// from the last (heaviest) to the first, mapping the stride peer of the
// reference core as close to it as possible and advancing the reference
// after every two placements, exactly mirroring Algorithm 2's structure.
func BKMH(d *topology.Distances, opts *Options) (Mapping, error) {
	return BKMHOracle(nil, d, opts)
}

// BKMHOracle is BKMH over an arbitrary distance oracle.
func BKMHOracle(ctx context.Context, o topology.Oracle, opts *Options) (m Mapping, err error) {
	mp, err := newMapper(o, opts)
	if err != nil {
		return nil, err
	}
	defer instrumentMapping("bkmh", time.Now(), mp, &err)
	mp.ctx = ctx
	p := o.N()
	refUpdate := opts.rdmhRefUpdate()
	top := prevPow2(p)
	// Restart frontier over additive strides: unlike XOR masks, (r+i)%p
	// always names a valid partner.
	fr := newMaskFrontier(top, func(r, stride int) int { return (r + stride) % p })
	fr.push(0, mp.mapped)
	ref := 0
	i := top
	placedAtRef := 0
	for mp.left > 0 {
		if err := mp.cancelled(); err != nil {
			return nil, err
		}
		for i > 0 && mp.mapped((ref+i)%p) {
			i >>= 1
		}
		if i == 0 {
			ref, i = fr.next(mp.mapped)
			placedAtRef = 0
			continue
		}
		newRank := (ref + i) % p
		mp.placeNear(newRank, ref)
		fr.push(newRank, mp.mapped)
		placedAtRef++
		if refUpdate > 0 && placedAtRef == refUpdate {
			ref = newRank
			i = top
			placedAtRef = 0
		}
	}
	return mp.m, nil
}
