// The generic schedule executor: runs any compiled sched.Program on an
// mpi.Comm, stage by stage. This is the convergence point of the Schedule-IR
// refactor — the same compiled program that simnet prices is what moves real
// bytes here, so the cost model and the runtime cannot drift apart.
//
// Execution model: every rank walks its precompiled linear step stream
// (sched.Program.RankSteps). Within an expanded stage a rank performs all of
// its sends before its receives; the runtime's Send is asynchronous and
// buffered, so sends never block and the stage cannot deadlock regardless of
// the schedule's communication structure. Each expanded stage uses its own
// tag, and both sender and receiver process a stage's ops in ascending op
// order, so the runtime's FIFO (src, tag) matching pairs messages
// consistently even when one pair of ranks exchanges several messages in
// one stage.
//
// Single-copy sends: a send the program marks Lend whose blocks lie back to
// back in the caller's buffer goes out as a view of it (mpi SendLent);
// other sends pack a pooled copy. Sends still never block: a rank waits for
// its views once, in WaitLent after its last step, on every return path.
// By then it has completed all its receives, so no peer waits on it and the
// wait closes no cycle; after it the caller may write the buffer again.
package collective

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sched"
)

// tag base for the schedule executor; the expanded stage index is added.
const tagSchedule = 9 << 20

// execMetrics bundles the resolved per-algorithm metric handles of the
// schedule executor. Resolving a labeled series (CounterVec.With) takes a
// lock and allocates; executeProgram runs per rank per collective, so the
// handles are resolved once per program name and cached.
type execMetrics struct {
	executions   *metrics.Counter
	transfers    *metrics.Counter
	lent         *metrics.Counter
	bytes        *metrics.Counter
	stageSeconds *metrics.Histogram
}

var execMetricsCache sync.Map // program name -> *execMetrics

// execMetricsFor returns the cached handle bundle for a program name.
func execMetricsFor(name string) *execMetrics {
	if em, ok := execMetricsCache.Load(name); ok {
		return em.(*execMetrics)
	}
	em := &execMetrics{
		executions:   scheduleExecutions.With("algorithm", name),
		transfers:    scheduleTransfers.With("algorithm", name),
		lent:         scheduleLentTransfers.With("algorithm", name),
		bytes:        scheduleBytes.With("algorithm", name),
		stageSeconds: scheduleStageSeconds.With("algorithm", name),
	}
	actual, _ := execMetricsCache.LoadOrStore(name, em)
	return actual.(*execMetrics)
}

// intsPool recycles a call's []int scratch: the executor's
// placement-resolved offset tables and the hierarchical doors' per-rank node
// ids. A slice travels with its holder from Get to Put, so a warm pool never
// hands out an empty one.
var intsPool = sync.Pool{New: func() any { return new([]int) }}

// pooledInts returns a holder from intsPool whose slice has n elements of
// any value; the caller returns it to intsPool when done.
func pooledInts(n int) *[]int {
	h := intsPool.Get().(*[]int)
	if cap(*h) < n {
		*h = make([]int, n)
	}
	*h = (*h)[:n]
	return h
}

// resolvePlaceOffsets builds the per-block byte offsets for a non-nil
// placement in pooled storage: off[b] is the buffer byte offset of block b.
func resolvePlaceOffsets(place Placement, blocks, blk int) *[]int {
	off := pooledInts(blocks)
	for b := range *off {
		(*off)[b] = place(b) * blk
	}
	return off
}

// blockOffsets locates program blocks in the caller's buffer: block b of
// blk bytes starts at b*blk under the identity placement (table nil), and
// at table[b] under a Placement.
type blockOffsets struct {
	blk   int
	table []int
}

func (o blockOffsets) at(b int32) int {
	if o.table == nil {
		return int(b) * o.blk
	}
	return o.table[b]
}

// span returns the byte offset at which blocks lie back to back in the
// buffer, in transmission order, and whether they do: then
// buf[off:off+len(blocks)*blk] is the op's payload.
func (o blockOffsets) span(blocks []int32) (int, bool) {
	first := o.at(blocks[0])
	for k, b := range blocks {
		if o.at(b) != first+k*o.blk {
			return 0, false
		}
	}
	return first, true
}

// executeProgram runs every stage of prog, Pre stages first, on c over buf, a
// prog.Blocks-block buffer with blk bytes per block. It is the only code in
// this package that moves collective payload. rot rotates the program's rank
// space onto the communicator: comm rank r plays program rank (r-rot) mod p,
// which is how one compiled rooted program serves every root. place relocates
// block identifiers to buffer positions (nil is the identity). op combines
// delivered blocks on Reduce stages and must be non-nil when the program has
// any.
//
// Lendable sends go out as views of buf, the rest as pooled copies handed
// over with SendOwned; receives copy or reduce the payload into buf and
// release it (see the package comment). The step loop is allocation-free in
// steady state: block byte offsets are one multiply per block — or one
// lookup in a per-call pooled table when a Placement is active — metric
// handles are resolved once per program name, and trace labels are only
// built when a tracer is installed.
func executeProgram(c *mpi.Comm, prog *sched.Program, rot int, buf []byte, blk int, place Placement, op ReduceOp) (err error) {
	p := c.Size()
	if prog.P != p {
		return fmt.Errorf("collective: program %q is compiled for %d ranks, communicator has %d",
			prog.Name, prog.P, p)
	}
	if err := prog.EnsureExecutable(); err != nil {
		return err
	}
	em := execMetricsFor(prog.Name)
	em.executions.Inc()

	me := c.Rank()
	steps := prog.RankSteps(rotate(me, p-rot, p))
	stages := prog.ExecStages()
	ops := prog.Ops()
	offs := blockOffsets{blk: blk}
	if place != nil {
		holder := resolvePlaceOffsets(place, prog.Blocks, blk)
		defer intsPool.Put(holder)
		offs.table = *holder
	}
	// Stage timing is sampled on rank 0 only, every execution: a stage's
	// duration is a collective property, and every rank clocking it would
	// both multiply the histogram's count by p and put two time syscalls
	// plus an Observe on each rank's critical path. Send counters accumulate
	// in locals and flush once per execution — per-message atomic adds on
	// shared counters ping-pong cache lines across the communicator's ranks.
	timed := me == 0
	// prof accumulates the sampled execution's flight-recorder profile on
	// the stack; stage times bin by pricing-view index so they line up with
	// simnet.Breakdown. Recording is a by-value copy into the ring — the
	// profile never escapes and the steady state stays allocation-free.
	var prof obs.Profile
	var priceMap []int32
	if timed {
		priceMap = prog.PriceStageMap()
		prof = obs.Profile{
			Program:    prog.Name,
			P:          int32(prog.P),
			Blocks:     int32(prog.Blocks),
			BlockBytes: int32(blk),
			Rank:       int32(me),
			UnixNanos:  time.Now().UnixNano(),
			Stages:     int32(prog.NumPriceStages()),
		}
	}
	var sent, lent, sentBytes uint64
	defer func() {
		if werr := c.WaitLent(); err == nil {
			err = werr
		}
	}()
	cur := int32(-1)
	var stageStart time.Time
	for i := range steps {
		stp := &steps[i]
		if stp.Stage != cur {
			if timed {
				if cur >= 0 {
					d := time.Since(stageStart).Seconds()
					em.stageSeconds.Observe(d)
					prof.AddStage(int(priceMap[cur]), d)
				}
				stageStart = time.Now()
			}
			cur = stp.Stage
			if c.Tracing() {
				c.TracePoint(fmt.Sprintf("sched %s stage %d", prog.Name, stp.Stage))
			}
		}
		o := &ops[stp.Op]
		tag := tagSchedule + int(stp.Stage)
		if stp.Send {
			n := o.NumBlk * blk
			dst := rotate(int(o.Dst), rot, p)
			sent++
			sentBytes += uint64(n)
			if stp.Lend {
				if off, ok := offs.span(prog.OpBlocks(*o)); ok {
					if err := c.SendLent(dst, tag, buf[off:off+n]); err != nil {
						return err
					}
					lent++
					continue
				}
			}
			out := mpi.GetBuf(n)
			for k, b := range prog.OpBlocks(*o) {
				off := offs.at(b)
				copy(out[k*blk:(k+1)*blk], buf[off:off+blk])
			}
			if err := c.SendOwned(dst, tag, out); err != nil {
				return err
			}
			continue
		}
		payload, err := c.RecvPayload(rotate(int(o.Src), rot, p), tag)
		if err != nil {
			return err
		}
		in := payload.Data
		if len(in) != o.NumBlk*blk {
			payload.Release()
			return fmt.Errorf("collective: schedule %q stage %d: received %d bytes, want %d",
				prog.Name, stp.Stage, len(in), o.NumBlk*blk)
		}
		if stages[stp.Stage].Reduce {
			if op == nil {
				payload.Release()
				return fmt.Errorf("collective: schedule %q has reduce stages but no reduce operator", prog.Name)
			}
			for k, b := range prog.OpBlocks(*o) {
				off := offs.at(b)
				op(buf[off:off+blk], in[k*blk:(k+1)*blk])
			}
		} else {
			for k, b := range prog.OpBlocks(*o) {
				off := offs.at(b)
				copy(buf[off:off+blk], in[k*blk:(k+1)*blk])
			}
		}
		// The payload has been fully copied or reduced into buf: give it
		// back to the pool or to its lender.
		payload.Release()
	}
	if timed && cur >= 0 {
		d := time.Since(stageStart).Seconds()
		em.stageSeconds.Observe(d)
		prof.AddStage(int(priceMap[cur]), d)
	}
	if sent > 0 {
		em.transfers.Add(sent)
		em.lent.Add(lent)
		em.bytes.Add(sentBytes)
	}
	if timed {
		prof.Transfers = int64(sent)
		prof.Bytes = int64(sentBytes)
		cfg := configOf(c)
		rec := cfg.Flight
		if rec == nil {
			rec = obs.Flight
		}
		rec.Record(prof)
		if cfg.Calibrator != nil {
			cfg.Calibrator.ObserveExecution(prog, prof)
		}
	}
	return nil
}

// rotate returns (r + by) mod p for 0 <= r, by <= p.
func rotate(r, by, p int) int {
	if r += by; r >= p {
		r -= p
	}
	return r
}

// rootRotation validates root and returns the rotation that lands prog's
// root on it.
func rootRotation(c *mpi.Comm, prog *sched.Program, root int) (int, error) {
	p := c.Size()
	if root < 0 || root >= p {
		return 0, fmt.Errorf("collective: root %d outside communicator of size %d", root, p)
	}
	return rotate(root, p-prog.Root, p), nil
}

// executeRooted runs a rooted program whose block space is the rank space
// (gather, scatter) toward root: under rotation rot program block b belongs
// to comm rank (b+rot) mod p, so that is where it sits in buf. Root-aligned
// calls keep the executor's identity-placement fast path.
func executeRooted(c *mpi.Comm, prog *sched.Program, rot int, buf []byte, blk int) error {
	if rot == 0 {
		return executeProgram(c, prog, 0, buf, blk, nil, nil)
	}
	p := c.Size()
	return executeProgram(c, prog, rot, buf, blk, func(b int) int { return rotate(b, rot, p) }, nil)
}

// ExecuteAllgather runs a compiled allgather program: rank r contributes
// send and recv ends with every rank's block. place relocates contributors'
// blocks in the output (the in-algorithm order fix of reordered
// communicators); nil is the identity.
func ExecuteAllgather(c *mpi.Comm, prog *sched.Program, send, recv []byte, place Placement) error {
	blk, err := checkAllgatherArgs(c, send, recv)
	if err != nil {
		return err
	}
	if prog.Init != sched.InitOwn || prog.Blocks != prog.P {
		return fmt.Errorf("collective: program %q is not an allgather program", prog.Name)
	}
	me := c.Rank()
	if place != nil {
		me = place(me)
	}
	copy(recv[me*blk:], send)
	return executeProgram(c, prog, 0, recv, blk, place, nil)
}

// ExecuteAllreduce runs a compiled reduction program (InitAll) over buf,
// combined in place on every rank with op.
func ExecuteAllreduce(c *mpi.Comm, prog *sched.Program, buf []byte, op ReduceOp) error {
	if len(buf) == 0 {
		return fmt.Errorf("collective: empty allreduce buffer")
	}
	if op == nil {
		return fmt.Errorf("collective: nil reduce op")
	}
	if prog.Init != sched.InitAll {
		return fmt.Errorf("collective: program %q is not a reduction program", prog.Name)
	}
	if len(buf)%prog.Blocks != 0 {
		return fmt.Errorf("collective: allreduce buffer of %d bytes does not divide into %d blocks",
			len(buf), prog.Blocks)
	}
	return executeProgram(c, prog, 0, buf, len(buf)/prog.Blocks, nil, op)
}

// ExecuteBroadcast runs a compiled broadcast program (InitRoot) from the
// program's own root: the root's data buffer reaches every rank. All ranks
// pass a buffer of equal size, divisible into the program's block count;
// only the root's content matters on entry.
func ExecuteBroadcast(c *mpi.Comm, prog *sched.Program, data []byte) error {
	return executeBroadcast(c, prog, prog.Root, data)
}

// executeBroadcast is ExecuteBroadcast from any root.
func executeBroadcast(c *mpi.Comm, prog *sched.Program, root int, data []byte) error {
	if prog.Init != sched.InitRoot {
		return fmt.Errorf("collective: program %q is not a broadcast program", prog.Name)
	}
	if len(data) == 0 || len(data)%prog.Blocks != 0 {
		return fmt.Errorf("collective: broadcast buffer of %d bytes does not divide into %d blocks",
			len(data), prog.Blocks)
	}
	// Broadcast blocks are chunks of one message, not per-rank
	// contributions, so they keep their positions under rotation.
	rot, err := rootRotation(c, prog, root)
	if err != nil {
		return err
	}
	return executeProgram(c, prog, rot, data, len(data)/prog.Blocks, nil, nil)
}

// ExecuteScatter runs a compiled scatter program from the program's own
// root: the root's data (one block per rank) is distributed so that rank r
// ends with block r in out. data is read on the root only.
func ExecuteScatter(c *mpi.Comm, prog *sched.Program, data, out []byte) error {
	return executeScatter(c, prog, prog.Root, data, out)
}

// executeScatter is ExecuteScatter from any root.
func executeScatter(c *mpi.Comm, prog *sched.Program, root int, data, out []byte) error {
	if prog.Init != sched.InitRoot || prog.Blocks != prog.P {
		return fmt.Errorf("collective: program %q is not a scatter program", prog.Name)
	}
	blk := len(out)
	if blk == 0 {
		return fmt.Errorf("collective: empty scatter output buffer")
	}
	rot, err := rootRotation(c, prog, root)
	if err != nil {
		return err
	}
	buf := mpi.GetBuf(prog.Blocks * blk)
	defer mpi.FreeBuf(buf)
	if c.Rank() == root {
		if len(data) != len(buf) {
			return fmt.Errorf("collective: scatter root data is %d bytes, want %d", len(data), len(buf))
		}
		copy(buf, data)
	}
	if err := executeRooted(c, prog, rot, buf, blk); err != nil {
		return err
	}
	copy(out, buf[c.Rank()*blk:(c.Rank()+1)*blk])
	return nil
}

// ExecuteGather runs a compiled gather program toward root: every rank
// contributes send; on the root, recv (one block per rank) ends with all
// contributions in rank order. recv may be nil on non-roots.
func ExecuteGather(c *mpi.Comm, prog *sched.Program, root int, send, recv []byte) error {
	blk := len(send)
	if blk == 0 {
		return fmt.Errorf("collective: empty gather send buffer")
	}
	if prog.Init != sched.InitOwn || prog.Blocks != prog.P {
		return fmt.Errorf("collective: program %q is not a gather program", prog.Name)
	}
	rot, err := rootRotation(c, prog, root)
	if err != nil {
		return err
	}
	buf := recv
	if c.Rank() == root {
		if len(recv) != prog.Blocks*blk {
			return fmt.Errorf("collective: gather recv buffer is %d bytes, want %d", len(recv), prog.Blocks*blk)
		}
	} else {
		buf = mpi.GetBuf(prog.Blocks * blk)
		defer mpi.FreeBuf(buf)
	}
	copy(buf[c.Rank()*blk:], send)
	return executeRooted(c, prog, rot, buf, blk)
}
