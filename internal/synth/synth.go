// Package synth searches the Schedule IR for topology-optimal collective
// schedules. It is the SCCL-style synthesis layer the roadmap calls for: the
// unified IR (package sched) supplies the candidate space and the
// correctness oracle (the Verify* possession-replay contracts), the sparse
// contention-aware cost model (package simnet) supplies the objective, and
// this package supplies the search.
//
// The search walks a space of *recipes* — serializable constructions that
// materialise into sched.Schedule values through the collective family
// registry's base builders (sched.Family), the hierarchical compositions
// over sched.Groups, the torus dimension-wise builders, and the chunked
// pipelining variants — plus stage-level mutations applied after
// materialisation (swap or merge adjacent stages, split a wide stage in two,
// swap intra/inter kinds, vary the hierarchical radix or chunk count).
// Candidates that fail their family's Verify contract are pruned and
// counted; each survivor is priced from one simnet contention profile
// (Machine.ProfileSchedule: no compile, no hash, exact at every size), with a
// cheap admissible lower bound pruning candidates that cannot beat the
// incumbent. The result is a pareto front
// over (latency price, bandwidth price) and a single winner per (topology
// fingerprint, family, rank count, size bucket) that lands in a Table the
// front-door selection in package collective consults before falling back to
// the hand-coded threshold rules.
package synth

import (
	"repro/internal/sched"
)

// Family aliases the schedule layer's collective family identifier: the
// registry in package sched owns the per-family contracts (Verify, payload
// sizing, base builders, selection-table bucketing), and synth attaches its
// search hooks — seed recipes and family-specific operators — to the same
// IDs. String(), Verify, BlockBytes, ProgramBlockBytes and BucketBytes are
// all methods of the underlying sched.FamilyID.
type Family = sched.FamilyID

const (
	Allgather = sched.FamilyAllgather
	Allreduce = sched.FamilyAllreduce
	Broadcast = sched.FamilyBroadcast
	Gather    = sched.FamilyGather
	Scatter   = sched.FamilyScatter
	Alltoall  = sched.FamilyAlltoall
)

// Families lists every registered family in table-key order.
func Families() []Family {
	fams := sched.Families()
	out := make([]Family, len(fams))
	for i, f := range fams {
		out[i] = f.ID
	}
	return out
}

// ParseFamily inverts Family.String through the registry.
func ParseFamily(s string) (Family, error) {
	return sched.ParseFamily(s)
}
