package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRunBasicSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 7, []byte("hello"))
		default:
			data, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(data) != "hello" {
				return fmt.Errorf("got %q", data)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestSendCopiesData(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the delivered message
			return c.Send(1, 1, nil)
		}
		data, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("send aliased caller buffer: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []byte{5}); err != nil {
				return err
			}
			return c.Send(1, 3, []byte{3})
		}
		// Receive in the opposite order of sending.
		d3, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		d5, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if d3[0] != 3 || d5[0] != 5 {
			return fmt.Errorf("tag mismatch: %v %v", d3, d5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 9, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			d, err := c.Recv(0, 9)
			if err != nil {
				return err
			}
			if d[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, d[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		partner := 1 - c.Rank()
		out := []byte{byte(c.Rank())}
		in, err := c.SendRecv(partner, out, partner, 0)
		if err != nil {
			return err
		}
		if in[0] != byte(partner) {
			return fmt.Errorf("rank %d received %d", c.Rank(), in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		_, err := c.Recv(0, 0)
		return err
	}, WithTimeout(50*time.Millisecond))
	if err == nil || !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestPanicsBecomeErrors(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestRangeChecks(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return fmt.Errorf("send out of range accepted")
		}
		if _, err := c.Recv(-1, 0); err == nil {
			return fmt.Errorf("recv out of range accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	const p = 8
	err := Run(p, func(c *Comm) error {
		for i := 0; i < 3; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDup(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		d, err := c.Dup()
		if err != nil {
			return err
		}
		if d.Rank() != c.Rank() || d.Size() != c.Size() {
			return fmt.Errorf("dup changed rank/size")
		}
		// Traffic on the two communicators must not cross: send on c with
		// the same (src, tag) as a pending recv on d.
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []byte("on-c")); err != nil {
				return err
			}
			if err := d.Send(1, 0, []byte("on-d")); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			got, err := d.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(got) != "on-d" {
				return fmt.Errorf("dup comm received %q", got)
			}
			got, err = c.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(got) != "on-c" {
				return fmt.Errorf("parent comm received %q", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	const p = 8
	err := Run(p, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != p/2 {
			return fmt.Errorf("split size = %d", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("rank %d got sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		if sub.WorldRank() != c.Rank() {
			return fmt.Errorf("world rank changed")
		}
		// The subgroup communicates independently.
		if sub.Rank() == 0 {
			return sub.Send(1, 0, []byte{byte(c.Rank())})
		}
		if sub.Rank() == 1 {
			d, err := sub.Recv(0, 0)
			if err != nil {
				return err
			}
			if int(d[0])%2 != c.Rank()%2 {
				return fmt.Errorf("crossed parity groups")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		color := -1
		if c.Rank() < 2 {
			color = 0
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() < 2 && (sub == nil || sub.Size() != 2) {
			return fmt.Errorf("member got %v", sub)
		}
		if c.Rank() >= 2 && sub != nil {
			return fmt.Errorf("non-member got a communicator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) error {
		// Reverse the ranks via descending keys.
		sub, err := c.Split(0, p-c.Rank())
		if err != nil {
			return err
		}
		if want := p - 1 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("rank %d -> sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReorder(t *testing.T) {
	const p = 4
	m := core.Mapping{2, 0, 3, 1} // new rank j is held by old rank m[j]
	err := Run(p, func(c *Comm) error {
		re, err := c.Reorder(m)
		if err != nil {
			return err
		}
		wantNew := map[int]int{2: 0, 0: 1, 3: 2, 1: 3}[c.Rank()]
		if re.Rank() != wantNew {
			return fmt.Errorf("old rank %d -> new rank %d, want %d", c.Rank(), re.Rank(), wantNew)
		}
		if re.WorldRank() != c.Rank() {
			return fmt.Errorf("reorder moved the process")
		}
		// Message addressed by new rank must reach the right process.
		if re.Rank() == 0 {
			if err := re.Send(1, 0, []byte{42}); err != nil {
				return err
			}
		}
		if re.Rank() == 1 {
			d, err := re.Recv(0, 0)
			if err != nil {
				return err
			}
			if !bytes.Equal(d, []byte{42}) {
				return fmt.Errorf("got %v", d)
			}
			if c.Rank() != 0 {
				return fmt.Errorf("new rank 1 should be old rank 0, am %d", c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReorderRejectsBadMapping(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := c.Reorder(core.Mapping{0, 0}); err == nil {
			return fmt.Errorf("duplicate mapping accepted")
		}
		if _, err := c.Reorder(core.Mapping{0}); err == nil {
			return fmt.Errorf("short mapping accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplitReorder(t *testing.T) {
	// Split into nodes of 2, reorder inside each: the composition used by
	// the hierarchical collectives.
	const p = 8
	err := Run(p, func(c *Comm) error {
		node, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		re, err := node.Reorder(core.Mapping{1, 0})
		if err != nil {
			return err
		}
		if re.Rank() != 1-node.Rank() {
			return fmt.Errorf("nested reorder wrong: %d -> %d", node.Rank(), re.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksStress(t *testing.T) {
	const p = 64
	err := Run(p, func(c *Comm) error {
		// Everyone sends to everyone (tiny payloads).
		for d := 0; d < p; d++ {
			if d == c.Rank() {
				continue
			}
			if err := c.Send(d, 1, []byte{byte(c.Rank())}); err != nil {
				return err
			}
		}
		for s := 0; s < p; s++ {
			if s == c.Rank() {
				continue
			}
			d, err := c.Recv(s, 1)
			if err != nil {
				return err
			}
			if d[0] != byte(s) {
				return fmt.Errorf("from %d got %d", s, d[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInfoKeys(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if !c.ReorderEnabled() {
			return fmt.Errorf("reordering should default to enabled")
		}
		if _, ok := c.Info(InfoTopoReorder); ok {
			return fmt.Errorf("phantom info key")
		}
		c.SetInfo(InfoTopoReorder, "false")
		if c.ReorderEnabled() {
			return fmt.Errorf("info key ignored")
		}
		c.SetInfo(InfoTopoReorder, "true")
		if !c.ReorderEnabled() {
			return fmt.Errorf("re-enable failed")
		}
		v, ok := c.Info(InfoTopoReorder)
		if !ok || v != "true" {
			return fmt.Errorf("Info() = %q, %v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMembers(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		m := c.AppendMembers(nil)
		if len(m) != 4 {
			return fmt.Errorf("members = %v", m)
		}
		m[0] = 99 // must be a copy
		if c.AppendMembers(nil)[0] == 99 {
			return fmt.Errorf("AppendMembers(nil) aliases internal state")
		}
		// Appending into spare capacity writes the caller's array only.
		buf := make([]int, 1, 8)
		buf[0] = -1
		got := c.AppendMembers(buf)
		if len(got) != 5 || got[0] != -1 || &got[0] != &buf[0] {
			return fmt.Errorf("AppendMembers(buf) = %v, want -1 then the members in buf's array", got)
		}
		got[1] = 99
		if c.AppendMembers(nil)[0] == 99 {
			return fmt.Errorf("AppendMembers(buf) aliases internal state")
		}
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		sm := sub.AppendMembers(nil)
		if len(sm) != 2 || sm[0]%2 != c.Rank()%2 {
			return fmt.Errorf("sub members = %v", sm)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
