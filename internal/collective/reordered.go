package collective

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// Algorithm names a flat allgather algorithm.
type Algorithm uint8

const (
	// AlgAuto selects by message size with MVAPICH-style thresholds: see
	// Select.
	AlgAuto Algorithm = iota
	// AlgRecursiveDoubling forces recursive doubling.
	AlgRecursiveDoubling
	// AlgRing forces the ring algorithm.
	AlgRing
	// AlgBruck forces the Bruck algorithm.
	AlgBruck
	// AlgNeighborExchange forces the neighbour-exchange algorithm (even
	// communicator sizes). Never chosen by AlgAuto; request it explicitly.
	AlgNeighborExchange
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgRecursiveDoubling:
		return "recursive-doubling"
	case AlgRing:
		return "ring"
	case AlgBruck:
		return "bruck"
	case AlgNeighborExchange:
		return "neighbor-exchange"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// RingThresholdBytes is the per-process message size above which Select
// prefers the ring algorithm, matching the switch point the paper observes
// in MVAPICH ("MVAPICH uses recursive doubling in this range [below 1KB]...
// uses the ring algorithm in this range [above 1KB]").
const RingThresholdBytes = 1024

// Tuning holds the algorithm-selection thresholds MPI libraries expose as
// tunables. The zero value selects the defaults. Tuning is injectable
// per-world: install one with Configure and every collective on that world
// selects under it, leaving other worlds in the process on their own knobs.
type Tuning struct {
	// RingThreshold is the per-process byte size above which the ring
	// algorithm is used (default RingThresholdBytes).
	RingThreshold int
	// PreferBruck selects Bruck over recursive doubling even for
	// power-of-two communicators below the ring threshold.
	PreferBruck bool
	// RabenseifnerThreshold is the buffer size at and above which Allreduce
	// prefers the reduce-scatter + allgather schedule when the communicator
	// shape admits it (default RabenseifnerThresholdBytes).
	RabenseifnerThreshold int
	// StageSampleRank selects the rank that clocks per-stage wall time and
	// records flight-recorder profiles (default rank 0). Pointing it at a
	// straggler rank makes the recorder see that rank's view of each stage.
	// Values outside [0, p) wrap modulo the communicator size.
	StageSampleRank int
	// StageSampleEvery records one profile per this many executions on the
	// sample rank (default 1: every execution). Raising it cheapens very
	// high-rate workloads at the cost of profile coverage.
	StageSampleEvery int
}

// DefaultTuning returns the MVAPICH-style defaults the paper's evaluation
// assumes.
func DefaultTuning() Tuning {
	return Tuning{
		RingThreshold:         RingThresholdBytes,
		RabenseifnerThreshold: RabenseifnerThresholdBytes,
	}
}

// Select resolves alg for p ranks and blkBytes-per-process messages under t:
// ring above the threshold; below it, recursive doubling on power-of-two
// communicators (unless PreferBruck) and Bruck otherwise.
func (t Tuning) Select(a Algorithm, p, blkBytes int) Algorithm {
	if a != AlgAuto {
		return a
	}
	threshold := t.RingThreshold
	if threshold <= 0 {
		threshold = RingThresholdBytes
	}
	if blkBytes > threshold {
		return AlgRing
	}
	if p&(p-1) == 0 && !t.PreferBruck {
		return AlgRecursiveDoubling
	}
	return AlgBruck
}

// Select resolves AlgAuto under the default tuning.
func Select(a Algorithm, p, blkBytes int) Algorithm {
	return DefaultTuning().Select(a, p, blkBytes)
}

// Allgather runs the selected flat allgather on c with the standard output
// contract (block r at offset r). Under AlgAuto the world's synthesized
// schedule table (Config.Synth) is consulted first; on a miss — or when the
// caller forces an algorithm — the world's Tuning thresholds select among
// the hand-coded builders. The chosen schedule is compiled to a
// sched.Program (cached per shape) and run by the generic schedule executor.
func Allgather(c *mpi.Comm, send, recv []byte, alg Algorithm) error {
	blk, err := checkAllgatherArgs(c, send, recv)
	if err != nil {
		return err
	}
	if alg == AlgAuto {
		if prog, ok := synthProgram(c, sched.FamilyAllgather, blk); ok {
			return tracedExecute(c, "allgather", prog.Name, func() error {
				return ExecuteAllgather(c, prog, send, recv, nil)
			})
		}
	}
	resolved := configOf(c).Tuning.Select(alg, c.Size(), blk)
	prog, err := scheduleProgram(resolved, c.Size())
	if err != nil {
		return err
	}
	return tracedExecute(c, "allgather", resolved.String(), func() error {
		return ExecuteAllgather(c, prog, send, recv, nil)
	})
}

// Reordered couples an original communicator with its reordered copy — the
// run-time artefact of paper Section IV. Construct it once per communicator
// and pattern with NewReordered; subsequent Allgather calls go through the
// reordered copy with output order preserved.
type Reordered struct {
	orig    *mpi.Comm
	re      *mpi.Comm
	mapping core.Mapping
	inv     []int // inv[origRank] = new rank
	mode    sched.OrderMode
}

// NewReordered collectively creates the reordered communicator from mapping
// m (all ranks must pass equal values) and the order-preservation mode used
// by order-sensitive algorithms.
func NewReordered(c *mpi.Comm, m core.Mapping, mode sched.OrderMode) (*Reordered, error) {
	re, err := c.Reorder(m)
	if err != nil {
		return nil, err
	}
	return &Reordered{orig: c, re: re, mapping: m, inv: m.NewRankOf(), mode: mode}, nil
}

// Comm returns the reordered communicator.
func (r *Reordered) Comm() *mpi.Comm { return r.re }

// Mapping returns the rank mapping (new rank -> old rank).
func (r *Reordered) Mapping() core.Mapping { return r.mapping }

// Allgather performs the topology-aware allgather: the collective runs over
// the reordered communicator while send/recv follow the *original* rank
// contract — recv holds block i of original rank i, for every i.
//
// Order preservation (paper Section V-B):
//
//   - the ring stores incoming blocks at original-rank offsets in-algorithm
//     (no overhead);
//   - recursive doubling and Bruck use the configured mechanism: InitComm
//     exchanges input vectors up front so new rank j starts with original
//     rank j's input, EndShuffle permutes the output buffer afterwards.
func (r *Reordered) Allgather(send, recv []byte, alg Algorithm) error {
	blk, err := checkAllgatherArgs(r.re, send, recv)
	if err != nil {
		return err
	}
	defer beginCollective("reordered")()
	resolved := configOf(r.re).Tuning.Select(alg, r.re.Size(), blk)
	if resolved == AlgRing || resolved == AlgNeighborExchange {
		// In-algorithm fix: contributor with new rank j is original rank
		// mapping[j]; the executor places its block there, so no extra
		// order-preservation mechanism is needed.
		prog, err := scheduleProgram(resolved, r.re.Size())
		if err != nil {
			return err
		}
		name := "allgather/" + resolved.String()
		r.re.TraceEnter(name)
		defer r.re.TraceExit(name)
		return ExecuteAllgather(r.re, prog, send, recv, func(j int) int { return r.mapping[j] })
	}

	switch r.mode {
	case sched.InitComm:
		input := send
		me := r.re.Rank()
		if r.mapping[me] != me {
			// Send my input to the process acting as my original rank; my
			// original rank is mapping[me]. Receive the input of original
			// rank me from the process holding it (new rank inv[me]).
			r.re.TraceEnter("reordered/init-comm")
			if err := r.re.Send(r.mapping[me], tagOrderFix, send); err != nil {
				return err
			}
			in, err := r.re.Recv(r.inv[me], tagOrderFix)
			r.re.TraceExit("reordered/init-comm")
			if err != nil {
				return err
			}
			if len(in) != blk {
				return fmt.Errorf("collective: initComm received %d bytes, want %d", len(in), blk)
			}
			input = in
		}
		return r.runFlat(resolved, input, recv)
	case sched.EndShuffle, sched.NoOrderFix:
		// Run in place, then shuffle: the block at position j belongs to
		// original rank mapping[j]. NoOrderFix on an order-sensitive
		// algorithm would return permuted output, so it shuffles too.
		if err := r.runFlat(resolved, send, recv); err != nil {
			return err
		}
		r.re.TraceEnter("reordered/end-shuffle")
		tmp := make([]byte, len(recv))
		copy(tmp, recv)
		for j := 0; j < r.re.Size(); j++ {
			copy(recv[r.mapping[j]*blk:], tmp[j*blk:(j+1)*blk])
		}
		r.re.TraceExit("reordered/end-shuffle")
		return nil
	default:
		return fmt.Errorf("collective: unknown order mode %v", r.mode)
	}
}

func (r *Reordered) runFlat(alg Algorithm, send, recv []byte) error {
	switch alg {
	case AlgRecursiveDoubling, AlgBruck:
		prog, err := scheduleProgram(alg, r.re.Size())
		if err != nil {
			return err
		}
		name := "allgather/" + alg.String()
		r.re.TraceEnter(name)
		defer r.re.TraceExit(name)
		return ExecuteAllgather(r.re, prog, send, recv, nil)
	default:
		return fmt.Errorf("collective: unexpected algorithm %v in reordered path", alg)
	}
}
