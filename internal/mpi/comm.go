package mpi

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Comm is a communicator: an ordered group of processes with a private
// communication context. Every process holds its own Comm value; collective
// operations (Split, Reorder, Dup, Barrier and the collectives of package
// collective) must be called by all members.
type Comm struct {
	world   *World
	ctx     uint64
	members []int // members[commRank] = world rank
	rank    int   // this process's comm rank
	info    Info  // process-local info keys (see info.go)
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank returns the calling process's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.members[c.rank] }

// AppendMembers appends the world ranks of the communicator's processes to
// dst in comm rank order and returns the extended slice; it never aliases
// the communicator's own list.
func (c *Comm) AppendMembers(dst []int) []int { return append(dst, c.members...) }

// Send delivers data to comm rank dst with the given tag. Sends are
// asynchronous and buffered (the runtime copies data, so the caller may
// reuse data immediately), hence pairwise exchange patterns cannot
// deadlock. The copy's backing store is drawn from the runtime's buffer
// pool (see bufpool.go); callers that want to skip the copy entirely hand
// a pooled buffer to SendOwned instead.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(c.members) {
		return fmt.Errorf("mpi: send to rank %d outside communicator of size %d", dst, len(c.members))
	}
	buf := GetBuf(len(data))
	copy(buf, data)
	c.sendPayload(dst, tag, buf, nil)
	return nil
}

// sendPayload is the common tail of Send, SendOwned and SendLent: it records
// the send and delivers buf to dst's inbox. owner is the lender of a view,
// nil when buf's ownership has passed to the runtime.
func (c *Comm) sendPayload(dst, tag int, buf []byte, owner *proc) {
	metricMessagesSent.Inc()
	metricBytesSent.Add(uint64(len(buf)))
	if t := c.world.tracer; t != nil {
		t.Record(trace.Event{
			Kind: trace.KindSend, Rank: c.members[c.rank], Ctx: c.ctx,
			Peer: dst, Tag: tag, Bytes: len(buf),
		})
	}
	c.world.deliver(c.members[dst], c.members[c.rank],
		message{ctx: c.ctx, src: c.rank, tag: tag, data: buf, owner: owner})
}

// Recv blocks until a message from comm rank src with the given tag arrives
// and returns its payload, which the caller owns: a view sent with SendLent
// is copied and released here.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	m, err := c.RecvPayload(src, tag)
	if err != nil || m.owner == nil {
		return m.Data, err
	}
	data := GetBuf(len(m.Data))
	copy(data, m.Data)
	m.owner.release()
	return data, nil
}

// RecvPayload is Recv for a caller that consumes the payload in place: the
// payload may be a view of the sender's memory, which the caller must not
// write or keep, and gives back with Release once consumed.
func (c *Comm) RecvPayload(src, tag int) (Payload, error) {
	if src < 0 || src >= len(c.members) {
		return Payload{}, fmt.Errorf("mpi: recv from rank %d outside communicator of size %d", src, len(c.members))
	}
	return c.world.await(c.members[c.rank], c.ctx, src, tag)
}

// SendRecv sends data to dst and receives a message from src, both with the
// same tag — the pairwise exchange primitive of recursive doubling.
func (c *Comm) SendRecv(dst int, data []byte, src, tag int) ([]byte, error) {
	if err := c.Send(dst, tag, data); err != nil {
		return nil, err
	}
	return c.Recv(src, tag)
}

// Internal tags for communicator-management traffic. User tags share the
// space; collectives in this module use the reserved high range.
const (
	tagBarrierGather = -(1 << 30) - iota
	tagBarrierRelease
	tagCommGather
	tagCommScatter
)

// Barrier blocks until every member of the communicator has entered it.
func (c *Comm) Barrier() error {
	start := time.Now()
	defer func() { metricBarrier.Observe(time.Since(start).Seconds()) }()
	const none = 0
	if c.rank == 0 {
		for r := 1; r < len(c.members); r++ {
			if _, err := c.Recv(r, tagBarrierGather); err != nil {
				return err
			}
		}
		for r := 1; r < len(c.members); r++ {
			if err := c.Send(r, tagBarrierRelease, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(none, tagBarrierGather, nil); err != nil {
		return err
	}
	_, err := c.Recv(none, tagBarrierRelease)
	return err
}

// gatherAt0 sends each rank's payload to comm rank 0; rank 0 receives them
// in rank order (its own payload included) and returns the slice.
func (c *Comm) gatherAt0(payload []byte) ([][]byte, error) {
	if c.rank != 0 {
		return nil, c.Send(0, tagCommGather, payload)
	}
	all := make([][]byte, len(c.members))
	all[0] = payload
	for r := 1; r < len(c.members); r++ {
		data, err := c.Recv(r, tagCommGather)
		if err != nil {
			return nil, err
		}
		all[r] = data
	}
	return all, nil
}

// scatterFrom0 distributes per-rank payloads from comm rank 0 and returns
// the local one.
func (c *Comm) scatterFrom0(payloads [][]byte) ([]byte, error) {
	if c.rank != 0 {
		return c.Recv(0, tagCommScatter)
	}
	if len(payloads) != len(c.members) {
		return nil, fmt.Errorf("mpi: scatter with %d payloads for %d ranks", len(payloads), len(c.members))
	}
	for r := 1; r < len(c.members); r++ {
		if err := c.Send(r, tagCommScatter, payloads[r]); err != nil {
			return nil, err
		}
	}
	return payloads[0], nil
}

// newCtx collectively allocates a fresh context id: rank 0 draws it from the
// world counter and distributes it.
func (c *Comm) newCtx() (uint64, error) {
	if c.rank == 0 {
		ctx := c.world.nextCtx.Add(1)
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(ctx >> (8 * i))
		}
		payloads := make([][]byte, len(c.members))
		for r := range payloads {
			payloads[r] = buf
		}
		if _, err := c.scatterFrom0(payloads); err != nil {
			return 0, err
		}
		return ctx, nil
	}
	buf, err := c.scatterFrom0(nil)
	if err != nil {
		return 0, err
	}
	if len(buf) != 8 {
		return 0, fmt.Errorf("mpi: malformed context broadcast (%d bytes)", len(buf))
	}
	var ctx uint64
	for i := 0; i < 8; i++ {
		ctx |= uint64(buf[i]) << (8 * i)
	}
	return ctx, nil
}

// Dup collectively duplicates the communicator with a fresh context. The
// duplicate owns its member slice and carries a copy of the parent's info
// (MPI_Comm_dup propagates info), so later mutations of either communicator
// stay local to it.
func (c *Comm) Dup() (*Comm, error) {
	ctx, err := c.newCtx()
	if err != nil {
		return nil, err
	}
	members := make([]int, len(c.members))
	copy(members, c.members)
	c.world.registerComm(ctx, "dup", len(members))
	c.traceComm(trace.KindCommDup, "dup", ctx, len(members))
	return &Comm{world: c.world, ctx: ctx, members: members, rank: c.rank, info: c.info.clone()}, nil
}

// Split collectively partitions the communicator: processes with equal color
// land in the same new communicator, ordered by (key, old rank). Every
// member must call Split. A negative color yields a nil communicator for
// that process (MPI_UNDEFINED behaviour). Each derived communicator carries
// a copy of the parent's info, so per-communicator settings like
// InfoTopoReorder survive the split.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Gather (color, key) pairs at rank 0, compute the grouping there and
	// scatter each rank's (new size, new rank, member list).
	enc := make([]byte, 16)
	putInt := func(b []byte, v int) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
	}
	getInt := func(b []byte) int {
		var u uint64
		for i := 0; i < 8; i++ {
			u |= uint64(b[i]) << (8 * i)
		}
		return int(u)
	}
	putInt(enc[0:8], color)
	putInt(enc[8:16], key)
	all, err := c.gatherAt0(enc)
	if err != nil {
		return nil, err
	}
	var myGroup []int // old comm ranks of my group, in new order
	if c.rank == 0 {
		type entry struct{ color, key, oldRank int }
		entries := make([]entry, len(all))
		for r, b := range all {
			if len(b) != 16 {
				return nil, fmt.Errorf("mpi: malformed split payload from rank %d", r)
			}
			entries[r] = entry{getInt(b[0:8]), getInt(b[8:16]), r}
		}
		groups := map[int][]entry{}
		for _, e := range entries {
			if e.color >= 0 {
				groups[e.color] = append(groups[e.color], e)
			}
		}
		payloads := make([][]byte, len(c.members))
		for _, g := range groups {
			sort.Slice(g, func(i, j int) bool {
				if g[i].key != g[j].key {
					return g[i].key < g[j].key
				}
				return g[i].oldRank < g[j].oldRank
			})
			buf := make([]byte, 8*len(g))
			for i, e := range g {
				putInt(buf[8*i:8*i+8], e.oldRank)
			}
			for _, e := range g {
				payloads[e.oldRank] = buf
			}
		}
		mine, err := c.scatterFrom0(payloads)
		if err != nil {
			return nil, err
		}
		myGroup = decodeInts(mine)
	} else {
		mine, err := c.scatterFrom0(nil)
		if err != nil {
			return nil, err
		}
		myGroup = decodeInts(mine)
	}
	// Allocate the new context collectively over the *parent* so that all
	// members agree, then build per-group comms. Every group gets its own
	// context derived from the shared one and its color-invariant group
	// leader, keeping traffic of different groups separate.
	base, err := c.newCtx()
	if err != nil {
		return nil, err
	}
	if myGroup == nil {
		return nil, nil // color < 0: not a member of any group
	}
	members := make([]int, len(myGroup))
	newRank := -1
	for i, oldRank := range myGroup {
		members[i] = c.members[oldRank]
		if oldRank == c.rank {
			newRank = i
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("mpi: rank %d missing from its own split group", c.rank)
	}
	// Distinguish groups by their leader's world rank (stable and agreed
	// upon by construction).
	ctx := base + uint64(members[0])<<32
	c.world.registerComm(ctx, "split", len(members))
	c.traceComm(trace.KindCommSplit, "split", ctx, len(members))
	return &Comm{world: c.world, ctx: ctx, members: members, rank: newRank, info: c.info.clone()}, nil
}

// decodeInts decodes the little-endian int64 array payloads of Split.
func decodeInts(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	out := make([]int, len(b)/8)
	for i := range out {
		var u uint64
		for k := 0; k < 8; k++ {
			u |= uint64(b[8*i+k]) << (8 * k)
		}
		out[i] = int(u)
	}
	return out
}

// Reorder collectively creates the reordered communicator of paper Section
// IV: the process holding old comm rank m[j] acts as rank j in the new
// communicator. All members must pass the same mapping. The reordered
// communicator carries a copy of the parent's info.
func (c *Comm) Reorder(m core.Mapping) (*Comm, error) {
	if len(m) != len(c.members) {
		return nil, fmt.Errorf("mpi: mapping over %d ranks for communicator of size %d", len(m), len(c.members))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ctx, err := c.newCtx()
	if err != nil {
		return nil, err
	}
	members := make([]int, len(c.members))
	newRank := -1
	for j, slot := range m {
		members[j] = c.members[slot]
		if slot == c.rank {
			newRank = j
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("mpi: rank %d missing from reorder mapping", c.rank)
	}
	c.world.registerComm(ctx, "reorder", len(members))
	c.traceComm(trace.KindCommReorder, "reorder", ctx, len(members))
	return &Comm{world: c.world, ctx: ctx, members: members, rank: newRank, info: c.info.clone()}, nil
}
