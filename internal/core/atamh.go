package core

import (
	"context"

	"repro/internal/topology"
)

// ATAMH is the all-to-all "mapping heuristic": the identity mapping. The
// all-to-all pattern graph is the complete graph with uniform edge weights,
// so its distance-weighted cost — the sum of distances over every ordered
// core pair in the job — is the same under every permutation of the same
// core set. No reordering can improve it, the identity is exactly optimal,
// and the real all-to-all win comes from the schedule side (topology-native
// schedules selected per fingerprint) rather than from rank placement.
func ATAMH(d *topology.Distances, opts *Options) (Mapping, error) {
	return Identity(d.N()), nil
}

// ATAMHOracle is ATAMH over any distance oracle.
func ATAMHOracle(ctx context.Context, o topology.Oracle, opts *Options) (Mapping, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return Identity(o.N()), nil
}
