package collective

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// sumOp adds little-endian uint64 vectors.
func sumOp(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := binary.LittleEndian.Uint64(dst[i:])
		b := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], a+b)
	}
}

// allreduceWant returns the expected elementwise sum for p ranks whose
// element j is rank*j+1.
func allreduceWant(p, elems int) []uint64 {
	out := make([]uint64, elems)
	for r := 0; r < p; r++ {
		for j := 0; j < elems; j++ {
			out[j] += uint64(r*j + 1)
		}
	}
	return out
}

func runAllreduce(t *testing.T, p, elems int, fn func(c *mpi.Comm, buf []byte) error) {
	t.Helper()
	want := allreduceWant(p, elems)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		buf := make([]byte, elems*8)
		for j := 0; j < elems; j++ {
			binary.LittleEndian.PutUint64(buf[j*8:], uint64(c.Rank()*j+1))
		}
		if err := fn(c, buf); err != nil {
			return err
		}
		for j := 0; j < elems; j++ {
			if got := binary.LittleEndian.Uint64(buf[j*8:]); got != want[j] {
				return fmt.Errorf("rank %d elem %d: got %d want %d", c.Rank(), j, got, want[j])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlatAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33} {
		runAllreduce(t, p, 4, func(c *mpi.Comm, buf []byte) error {
			return Allreduce(c, buf, sumOp)
		})
	}
}

func TestHierarchicalAllreduce(t *testing.T) {
	for _, shape := range [][2]int{{1, 4}, {2, 4}, {4, 2}, {4, 8}, {3, 3}} {
		nodes, ppn := shape[0], shape[1]
		p := nodes * ppn
		nodeOf := func(worldRank int) int { return worldRank / ppn }
		runAllreduce(t, p, 3, func(c *mpi.Comm, buf []byte) error {
			return HierarchicalAllreduce(c, buf, sumOp, nodeOf)
		})
	}
}

func TestHierarchicalAllreduceUnevenNodes(t *testing.T) {
	// Unlike the allgather, the allreduce tolerates uneven node
	// populations: reductions do not concatenate.
	nodeOf := func(worldRank int) int {
		if worldRank < 3 {
			return 0
		}
		return 1
	}
	runAllreduce(t, 5, 2, func(c *mpi.Comm, buf []byte) error {
		return HierarchicalAllreduce(c, buf, sumOp, nodeOf)
	})
}

func TestBinomialReduce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 16} {
		for _, root := range []int{0, p - 1} {
			want := allreduceWant(p, 2)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				buf := make([]byte, 16)
				for j := 0; j < 2; j++ {
					binary.LittleEndian.PutUint64(buf[j*8:], uint64(c.Rank()*j+1))
				}
				if err := BinomialReduce(c, root, buf, sumOp); err != nil {
					return err
				}
				if c.Rank() == root {
					for j := 0; j < 2; j++ {
						if got := binary.LittleEndian.Uint64(buf[j*8:]); got != want[j] {
							return fmt.Errorf("root elem %d: got %d want %d", j, got, want[j])
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceErrors(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := BinomialReduce(c, 9, make([]byte, 8), sumOp); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		if err := BinomialReduce(c, 0, make([]byte, 8), nil); err == nil {
			return fmt.Errorf("nil op accepted")
		}
		if err := Allreduce(c, nil, sumOp); err == nil {
			return fmt.Errorf("empty buffer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSchedule(t *testing.T) {
	s, err := sched.BinomialReduceBroadcast(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reduce stages mirror broadcast stages: total transfer count is
	// 2*(p-1).
	n := 0
	for _, st := range s.Stages {
		n += len(st.Transfers)
	}
	if n != 30 {
		t.Errorf("allreduce schedule has %d transfers, want 30", n)
	}
}
