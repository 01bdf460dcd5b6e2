package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSendOwnedRoundTrip pins the lending contract: the receiver gets the
// exact bytes handed to SendOwned and may recycle the buffer afterwards.
func TestSendOwnedRoundTrip(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const tag = 77
		if c.Rank() == 0 {
			buf := GetBuf(1024)
			for i := range buf {
				buf[i] = byte(i)
			}
			return c.SendOwned(1, tag, buf)
		}
		in, err := c.Recv(0, tag)
		if err != nil {
			return err
		}
		for i, b := range in {
			if b != byte(i) {
				return fmt.Errorf("byte %d = %d, want %d", i, b, byte(i))
			}
		}
		FreeBuf(in)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendOwnedRangeError mirrors Send's destination validation.
func TestSendOwnedRangeError(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.SendOwned(3, 0, GetBuf(8)); err == nil {
			return fmt.Errorf("out-of-range SendOwned accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGetBufLengths pins the pool API edge cases and the size-class
// invariants: a buffer is never more than twice the request, and a freed
// buffer never serves a request larger than its capacity.
func TestGetBufLengths(t *testing.T) {
	if b := GetBuf(0); len(b) != 0 {
		t.Errorf("GetBuf(0) = %d bytes", len(b))
	}
	FreeBuf(nil) // must be a no-op
	b := GetBuf(37)
	if len(b) != 37 {
		t.Errorf("GetBuf(37) = %d bytes", len(b))
	}
	FreeBuf(b)
	// A recycled buffer must come back with the requested length even if
	// the pooled capacity differs.
	c := GetBuf(5)
	if len(c) != 5 {
		t.Errorf("GetBuf(5) after free = %d bytes", len(c))
	}
	FreeBuf(c)
	for _, n := range []int{1, 2, 3, 4, 5, 63, 64, 65, 1000, 1024, 1025, 1 << 20, 1<<20 + 1} {
		b := GetBuf(n)
		if len(b) != n || (n >= 2 && cap(b) >= 2*n) {
			t.Errorf("GetBuf(%d): len %d cap %d, want len %d and cap < %d", n, len(b), cap(b), n, 2*n)
		}
		FreeBuf(b)
	}
	// Foreign capacities (buffers the pool did not make) are accepted and
	// must never come back for a request they cannot hold. The pool is
	// per-P, so the request right after the free sees the freed buffer.
	for _, c := range []int{1, 3, 48, 100, 1000, 4097} {
		FreeBuf(make([]byte, c))
		for _, n := range []int{c + 1, 2 * c, c} {
			b := GetBuf(n)
			if len(b) != n || cap(b) < n || (n >= 2 && cap(b) >= 2*n) {
				t.Errorf("after FreeBuf(cap %d): GetBuf(%d) has len %d cap %d", c, n, len(b), cap(b))
			}
		}
	}
}

// TestBufPoolMixedSizesSteadyState is the traffic the single-pool design
// got wrong: a small, a medium and a large buffer in flight together, as a
// rank holds them mid-collective. One variable-capacity pool served small
// requests with large buffers and allocated again for the large request
// until every pooled buffer had grown to the maximum (and again after each
// GC emptied it); with size classes a warm rotation allocates nothing and
// each request is served from its own class.
func TestBufPoolMixedSizesSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	sizes := [...]int{64, 16 << 10, 1 << 20}
	var held [len(sizes)][]byte
	round := func() {
		for i, n := range sizes {
			held[i] = GetBuf(n)
			held[i][n-1] = 1
		}
		for _, b := range held {
			FreeBuf(b)
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("warm mixed-size rotation allocates %.2f times per round, want 0", avg)
	}
	for i, n := range sizes {
		if cap(held[i]) >= 2*n {
			t.Errorf("warm %d-byte request was served a %d-byte buffer", n, cap(held[i]))
		}
	}
}

// TestPooledSendBuffersConcurrent drives many worlds' worth of pooled sends,
// owned sends and frees concurrently; under -race it proves that buffer
// recycling never lets two owners touch one backing array at the same time.
func TestPooledSendBuffersConcurrent(t *testing.T) {
	const (
		p      = 8
		rounds = 40
	)
	err := Run(p, func(c *Comm) error {
		me, size := c.Rank(), c.Size()
		next, prev := (me+1)%size, (me-1+size)%size
		payload := make([]byte, 512)
		for i := range payload {
			payload[i] = byte(me)
		}
		for r := 0; r < rounds; r++ {
			// Alternate the copying and the lending path so both recycle
			// through one pool while every rank sends and receives.
			if r%2 == 0 {
				if err := c.Send(next, r, payload); err != nil {
					return err
				}
			} else {
				buf := GetBuf(len(payload))
				copy(buf, payload)
				if err := c.SendOwned(next, r, buf); err != nil {
					return err
				}
			}
			in, err := c.Recv(prev, r)
			if err != nil {
				return err
			}
			want := bytes.Repeat([]byte{byte(prev)}, 512)
			if !bytes.Equal(in, want) {
				return fmt.Errorf("rank %d round %d: corrupted payload (got %d..., want %d...)", me, r, in[0], prev)
			}
			FreeBuf(in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendStillCopies pins Send's copying contract after the pool refactor:
// the caller may scribble over data immediately after Send returns.
func TestSendStillCopies(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []byte{1, 2, 3, 4}
			if err := c.Send(1, 5, data); err != nil {
				return err
			}
			for i := range data {
				data[i] = 0xFF // must not affect the in-flight message
			}
			return nil
		}
		in, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if !bytes.Equal(in, []byte{1, 2, 3, 4}) {
			return fmt.Errorf("send did not copy: got %v", in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
