package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

func TestBinomialScatter(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16, 32} {
		for _, root := range []int{0, p - 1, p / 2} {
			const chunk = 8
			data := make([]byte, p*chunk)
			for i := range data {
				data[i] = byte(i * 3)
			}
			err := mpi.Run(p, func(c *mpi.Comm) error {
				var in []byte
				if c.Rank() == root {
					in = data
				}
				out := make([]byte, chunk)
				if err := Scatter(c, root, in, out); err != nil {
					return err
				}
				want := data[c.Rank()*chunk : (c.Rank()+1)*chunk]
				if !bytes.Equal(out, want) {
					return fmt.Errorf("rank %d got wrong chunk", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBinomialScatterErrors(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := Scatter(c, 5, nil, make([]byte, 4)); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		if err := Scatter(c, 0, nil, nil); err == nil {
			return fmt.Errorf("empty chunk accepted")
		}
		if c.Rank() == 0 {
			if err := Scatter(c, 0, make([]byte, 3), make([]byte, 4)); err == nil {
				return fmt.Errorf("short root data accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scatterAllgatherBroadcast runs the large-message broadcast program —
// binomial scatter of p chunks, then a ring allgather (paper Section V-A3) —
// on the executor, from any root.
func scatterAllgatherBroadcast(c *mpi.Comm, root int, data []byte) error {
	prog, err := scheduleBuilt(sched.FamilyBroadcast, "scatter-allgather-broadcast", c.Size())
	if err != nil {
		return err
	}
	return executeBroadcast(c, prog, root, data)
}

func TestScatterAllgatherBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 8, 16} {
		for _, root := range []int{0, p - 1} {
			msg := make([]byte, p*16)
			for i := range msg {
				msg[i] = byte(i*7 + 1)
			}
			err := mpi.Run(p, func(c *mpi.Comm) error {
				buf := make([]byte, len(msg))
				if c.Rank() == root {
					copy(buf, msg)
				}
				if err := scatterAllgatherBroadcast(c, root, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, msg) {
					return fmt.Errorf("rank %d has wrong broadcast payload", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestScatterAllgatherBroadcastRejectsIndivisible(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if err := scatterAllgatherBroadcast(c, 0, make([]byte, 4)); err == nil {
			return fmt.Errorf("indivisible buffer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
