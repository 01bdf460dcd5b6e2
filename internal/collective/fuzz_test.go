package collective

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// FuzzExecutorAllgather replays fuzzer-chosen schedule shapes through the
// generic executor on a real mpi world and checks the allgather contract
// against the expected output. Run under -race this doubles as a concurrency
// test of the shared compiled program.
func FuzzExecutorAllgather(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(8))
	f.Add(uint8(6), uint8(1), uint8(1))
	f.Add(uint8(5), uint8(2), uint8(3))
	f.Add(uint8(8), uint8(3), uint8(16))
	f.Fuzz(func(t *testing.T, pRaw, algRaw, blkRaw uint8) {
		p := int(pRaw)%12 + 1
		blk := int(blkRaw)%32 + 1
		var alg Algorithm
		switch algRaw % 4 {
		case 0:
			alg = AlgRecursiveDoubling
			q := 1
			for q*2 <= p {
				q *= 2
			}
			p = q
		case 1:
			alg = AlgRing
		case 2:
			alg = AlgBruck
		default:
			alg = AlgNeighborExchange
			if p%2 != 0 {
				p++
			}
		}
		prog, err := scheduleBuilt(sched.FamilyAllgather, alg.String(), p)
		if err != nil {
			t.Fatal(err)
		}
		err = mpi.Run(p, func(c *mpi.Comm) error {
			recv := make([]byte, p*blk)
			if err := ExecuteAllgather(c, prog, input(c.Rank(), blk), recv, nil); err != nil {
				return err
			}
			if !bytes.Equal(recv, expected(p, blk)) {
				return fmt.Errorf("rank %d: executor output violates the allgather contract", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzExecutorHierarchical replays fuzzer-chosen hierarchical compositions —
// not a registry family, so outside FuzzExecutorFamily's walk — through the
// HierarchicalAllgather front door on a real world.
func FuzzExecutorHierarchical(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), uint8(1))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, gRaw, kRaw, intraRaw, interRaw uint8) {
		g := int(gRaw)%4 + 1
		k := int(kRaw)%4 + 1
		cfg := sched.HierarchicalConfig{
			Intra: sched.IntraKind(intraRaw % 2),
			Inter: sched.InterKind(interRaw % 2),
		}
		if cfg.Inter == sched.InterRecursiveDoubling && g&(g-1) != 0 {
			return
		}
		nodeOf := func(worldRank int) int { return worldRank / k }
		p := g * k
		const blk = 4
		err := mpi.Run(p, func(c *mpi.Comm) error {
			recv := make([]byte, p*blk)
			if err := HierarchicalAllgather(c, input(c.Rank(), blk), recv, nodeOf, cfg); err != nil {
				return err
			}
			if !bytes.Equal(recv, expected(p, blk)) {
				return fmt.Errorf("rank %d: hierarchical executor output wrong", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzExecutorHierarchicalAllreduce is the allreduce twin of
// FuzzExecutorHierarchical: the fuzzer assigns ranks to nodes — uneven, a
// single node, single-rank nodes, any leader count — and picks payloads on
// both sides of the reduce-scatter + allgather threshold. Every rank must end
// with the closed-form sum, and the plan program the call ran must pass the
// allreduce verifier.
func FuzzExecutorHierarchicalAllreduce(f *testing.F) {
	// p = pRaw%16+1 ranks, nodes = nodesRaw%p+1, 8*(elemsRaw%8192+1) bytes.
	f.Add(uint8(4), uint8(1), uint16(0), uint16(0))     // 5 ranks on nodes {0,1,4} and {2,3}, 8 B
	f.Add(uint8(7), uint8(0), uint16(7), uint16(4095))  // one node, 32 KiB
	f.Add(uint8(5), uint8(5), uint16(1), uint16(4094))  // six single-rank nodes, 32760 B
	f.Add(uint8(8), uint8(2), uint16(2), uint16(8191))  // three leaders, 64 KiB
	f.Add(uint8(11), uint8(3), uint16(1), uint16(4094)) // four leaders, 32760 B: binomial leaders
	f.Add(uint8(11), uint8(3), uint16(1), uint16(8191)) // four leaders, 64 KiB: reduce-scatter + allgather
	f.Add(uint8(5), uint8(1), uint16(0), uint16(4182))  // two leaders, 33464 B: halves would split a word
	f.Fuzz(func(t *testing.T, pRaw, nodesRaw uint8, salt, elemsRaw uint16) {
		p := int(pRaw)%16 + 1
		nodes := int(nodesRaw)%p + 1
		elems := int(elemsRaw)%8192 + 1
		// Rank w lives on node (w*salt + w/nodes) mod nodes: contiguous runs,
		// round-robin or scrambled assignments, some nodes possibly empty.
		nodeOf := func(w int) int { return (w*int(salt) + w/nodes) % nodes }
		want := allreduceWant(p, elems)
		var ran *sched.Program
		err := mpi.Run(p, func(c *mpi.Comm) error {
			buf := make([]byte, elems*8)
			for j := 0; j < elems; j++ {
				binary.LittleEndian.PutUint64(buf[j*8:], uint64(c.Rank()*j+1))
			}
			if err := HierarchicalAllreduce(c, buf, sumOp, nodeOf); err != nil {
				return err
			}
			for j := 0; j < elems; j++ {
				if got := binary.LittleEndian.Uint64(buf[j*8:]); got != want[j] {
					return fmt.Errorf("rank %d elem %d: got %d want %d", c.Rank(), j, got, want[j])
				}
			}
			if c.Rank() != 0 {
				return nil
			}
			ids := c.Members()
			for r, w := range ids {
				ids[r] = nodeOf(w)
			}
			leader, err := selectProgram(c, sched.FamilyAllreduce, len(sched.Groups(ids, func(n int) int { return n })), len(buf), AlgAuto)
			if err != nil {
				return err
			}
			ran, err = planOf(ids, hierPlanKey{base: leader}, func() (*sched.Schedule, error) {
				return nil, fmt.Errorf("the call's plan is not in the table")
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ran.Schedule().VerifyAllreduce(); err != nil {
			t.Fatal(err)
		}
	})
}
