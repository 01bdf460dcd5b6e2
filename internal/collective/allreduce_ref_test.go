package collective

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// The hierarchical allreduce as it ran before it became one compiled
// program: two communicator splits, a hand-written binomial reduce into each
// node's leader, the Allreduce front door among the leaders and the Broadcast
// front door inside each node. TestHierarchicalAllreduceMatchesReference
// holds HierarchicalAllreduce to it with ==.

// tagReduceRef is the reference reduce's tag base.
const tagReduceRef = 5 << 20

// binomialReduceRef reduces every rank's buf into the root along the binomial
// tree. On return the root's buf holds the combined value; other ranks'
// buffers are unspecified scratch.
func binomialReduceRef(c *mpi.Comm, root int, buf []byte, op ReduceOp) error {
	p, me := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return fmt.Errorf("collective: reduce root %d outside communicator of size %d", root, p)
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	vr := ((me-root)%p + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			parent := (vr - mask + root) % p
			return c.Send(parent, tagReduceRef+bits.TrailingZeros(uint(mask)), buf)
		}
		if vr+mask < p {
			child := (vr + mask + root) % p
			in, err := c.Recv(child, tagReduceRef+bits.TrailingZeros(uint(mask)))
			if err != nil {
				return err
			}
			if len(in) != len(buf) {
				return fmt.Errorf("collective: reduce received %d bytes, want %d", len(in), len(buf))
			}
			op(buf, in)
		}
	}
	return nil
}

// hierarchicalAllreduceRef is the split-based hierarchical allreduce.
func hierarchicalAllreduceRef(c *mpi.Comm, buf []byte, op ReduceOp, nodeID func(worldRank int) int) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	nodeComm, err := c.Split(nodeID(c.WorldRank()), c.Rank())
	if err != nil {
		return err
	}
	if nodeComm == nil {
		return fmt.Errorf("collective: allreduce node split produced no communicator")
	}
	isLeader := nodeComm.Rank() == 0
	leaderColor := -1
	if isLeader {
		leaderColor = 0
	}
	leaderComm, err := c.Split(leaderColor, c.Rank())
	if err != nil {
		return err
	}
	if err := binomialReduceRef(nodeComm, 0, buf, op); err != nil {
		return err
	}
	if isLeader {
		if err := Allreduce(leaderComm, buf, op); err != nil {
			return err
		}
	}
	return Broadcast(nodeComm, 0, buf)
}

// sumFloat64 adds little-endian float64 vectors; unlike sumOp its result
// depends on the combine order.
func sumFloat64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
	}
}

// floatInput is rank r's float64 vector of n bytes, with magnitudes spread
// over many binades so that a different combine order rounds differently.
func floatInput(r, n int) []byte {
	buf := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		j := i / 8
		v := math.Ldexp(1+float64((r*7919+j*104729)%1000)/1000, (r*13+j*5)%41-20)
		binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(v))
	}
	return buf
}

// TestHierarchicalAllreduceMatchesReference: the compiled hierarchical
// allreduce leaves every rank's buffer == to the split-based reference's, for
// an integer and a float64 sum, over even and uneven node shapes and
// payloads on both sides of the reduce-scatter + allgather threshold, where
// the leader phase changes program.
func TestHierarchicalAllreduceMatchesReference(t *testing.T) {
	type shape struct {
		name   string
		p      int
		nodeOf func(int) int
	}
	var shapes []shape
	for _, s := range [][2]int{{1, 4}, {2, 4}, {4, 2}, {4, 8}, {3, 3}} {
		ppn := s[1]
		shapes = append(shapes, shape{fmt.Sprintf("%dx%d", s[0], ppn), s[0] * ppn, func(w int) int { return w / ppn }})
	}
	shapes = append(shapes, shape{"uneven-3+2", 5, func(w int) int {
		if w < 3 {
			return 0
		}
		return 1
	}})
	ops := []struct {
		name  string
		op    ReduceOp
		input func(r, n int) []byte
	}{
		{"uint64", sumOp, func(r, n int) []byte {
			buf := make([]byte, n)
			for i := 0; i+8 <= n; i += 8 {
				binary.LittleEndian.PutUint64(buf[i:], uint64(r*(i/8)+1))
			}
			return buf
		}},
		{"float64", sumFloat64, floatInput},
	}
	for _, sh := range shapes {
		for _, n := range []int{8, 1024, 64 << 10} {
			for _, o := range ops {
				err := mpi.Run(sh.p, func(c *mpi.Comm) error {
					got, want := o.input(c.Rank(), n), o.input(c.Rank(), n)
					if err := HierarchicalAllreduce(c, got, o.op, sh.nodeOf); err != nil {
						return err
					}
					if err := hierarchicalAllreduceRef(c, want, o.op, sh.nodeOf); err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d: output differs from the split-based reference", c.Rank())
					}
					return nil
				})
				if err != nil {
					t.Errorf("%s %dB %s: %v", sh.name, n, o.name, err)
				}
			}
		}
	}
}

// TestHierarchicalAllreduceSteadyState: after the first call on a world,
// further calls compile nothing, and a power-of-two leader count at 64 KiB
// runs reduce-scatter + allgather among the leaders.
func TestHierarchicalAllreduceSteadyState(t *testing.T) {
	const p, n = 8, 64 << 10
	nodeOf := func(w int) int { return w / 2 }
	var names [p]string
	err := mpi.Run(p, func(c *mpi.Comm) error {
		buf := make([]byte, n)
		if err := HierarchicalAllreduce(c, buf, sumOp, nodeOf); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		_, m0 := sched.CompileCacheCounters()
		for i := 0; i < 3; i++ {
			if err := HierarchicalAllreduce(c, buf, sumOp, nodeOf); err != nil {
				return err
			}
		}
		if _, m1 := sched.CompileCacheCounters(); m1 != m0 {
			return fmt.Errorf("rank %d: %d compile-cache misses in steady state", c.Rank(), m1-m0)
		}
		leader, err := selectProgram(c, sched.FamilyAllreduce, 4, n, AlgAuto)
		if err != nil {
			return err
		}
		prog, err := planOf([]int{0, 0, 1, 1, 2, 2, 3, 3}, hierPlanKey{leader: leader}, func() (*sched.Schedule, error) {
			return nil, fmt.Errorf("plan rebuilt in steady state")
		})
		if err != nil {
			return err
		}
		names[c.Rank()] = prog.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, name := range names {
		if name != "hierarchical-reduce-scatter-allgather" {
			t.Errorf("rank %d ran %q, want hierarchical-reduce-scatter-allgather", r, name)
		}
	}
}
