// Payload buffer recycling. Every message the runtime moves is backed by a
// heap buffer; before this pool existed, Comm.Send allocated a fresh copy
// per message, which made the schedule executor's steady state allocate on
// every step. The pool gives the runtime an explicit buffer-ownership
// contract instead:
//
//   - GetBuf lends a buffer out of the pool (allocating only when the pool
//     is empty).
//   - SendOwned transfers a buffer's ownership to the runtime: no copy is
//     made, the receiver's Recv returns that exact buffer, and from the
//     moment SendOwned is called the sender must not read or write it.
//   - FreeBuf returns a fully consumed buffer to the pool. Only the current
//     owner may free: for a received message that is the receiver, after it
//     has copied or reduced the payload out. Freeing a buffer that anyone
//     still aliases is a use-after-free waiting to happen — the executor
//     only frees buffers it received through its own stage tags and never
//     retains.
//
// Comm.Send keeps its copying contract (the caller may reuse data
// immediately) but draws the copy's backing store from the same pool, so a
// Send/Recv/FreeBuf round trip recycles buffers instead of growing garbage.
// Buffers a receiver keeps (ordinary application Recv calls) simply never
// return to the pool; that is safe, it only costs a future allocation.
package mpi

import (
	"fmt"
	"math/bits"
	"sync"
)

// bufPools recycles payload buffers across sends of all worlds, one pool per
// power-of-two size class: every entry of bufPools[k] is a *[]byte holding a
// buffer of capacity exactly 1<<k. holderPool recycles the (empty) *[]byte
// boxes themselves, so the Get/Free round trip moves one holder between the
// two pools and never allocates in steady state.
//
// The classes are what the measured traffic needs. A runtime serving the
// paper's algorithms sees mixed sizes by construction — recursive doubling
// and Bruck double the message every stage, and one world interleaves 64 B
// ring messages with 1 MiB all-to-all staging buffers. A single
// variable-capacity pool served the small request with the large buffer and
// then allocated for the large request: 76 % of every byte the coll-steady
// benchmark allocated, 70 % of job-launch's.
var (
	bufPools   [64]sync.Pool // bufPools[k] entries: *[]byte with capacity 1<<k
	holderPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf returns a payload buffer of length n, drawn from the runtime's
// recycling pool. The buffer's contents are unspecified; the caller must
// overwrite all n bytes it intends to send. Pass the buffer to SendOwned
// (transferring ownership to the runtime) or return it with FreeBuf.
func GetBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest class whose capacity 1<<k holds n
	if bp, ok := bufPools[k].Get().(*[]byte); ok {
		b := *bp
		*bp = nil
		holderPool.Put(bp)
		return b[:n]
	}
	return make([]byte, n, 1<<k)
}

// FreeBuf returns buf to the recycling pool. The caller must be buf's sole
// owner and must not touch it afterwards. Freeing nil or empty buffers is a
// no-op. It is always safe to *not* call FreeBuf — an unreturned buffer is
// ordinary garbage — so callers outside allocation-sensitive hot paths can
// ignore the pool entirely. Buffers the pool did not make are accepted: one
// of capacity c joins the largest class it can fully serve, trimmed to that
// class's capacity.
func FreeBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	k := bits.Len(uint(cap(buf))) - 1 // largest class with 1<<k <= cap
	bp := holderPool.Get().(*[]byte)
	*bp = buf[: 0 : 1<<k]
	bufPools[k].Put(bp)
}

// SendOwned delivers data to comm rank dst with the given tag, transferring
// ownership of data's backing array to the runtime: no copy is made. The
// caller must not read or write data after the call returns. The receiving
// side's Recv returns this buffer; once the receiver has fully consumed the
// payload it may recycle it with FreeBuf. Semantically SendOwned is
// identical to Send — asynchronous, buffered, FIFO-matched per (src, tag) —
// it only skips the defensive copy.
func (c *Comm) SendOwned(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(c.members) {
		return fmt.Errorf("mpi: send to rank %d outside communicator of size %d", dst, len(c.members))
	}
	c.sendPayload(dst, tag, data)
	return nil
}
