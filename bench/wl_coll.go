package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// collKind is one of the front-door collective kinds coll-steady mixes,
// plus (traced pass only) the Execute* twins used for layer replay.
type collKind uint8

const (
	kAllgatherRing collKind = iota
	kAllgatherRD
	kAllgatherBruck
	kAllgatherAuto
	kAllreduce
	kBroadcast
	kGather
	kScatter
	kAlltoall
	kReordRing
	kReordRDInit
	kReordRDShuffle
	kHier
	kHierReord
	numFrontDoorKinds
)

// The Execute* twins: the executor entry on a pre-compiled program with the
// inputs of the preceding front-door op (layer replay in the traced pass;
// never part of the untraced mix).
const (
	xAllgather collKind = numFrontDoorKinds + iota
	xAllreduce
	xBroadcast
	xGather
	xScatter
	xAlltoall
	numKinds
)

var collKindNames = [numKinds]string{
	"allgather/ring", "allgather/recursive-doubling", "allgather/bruck", "allgather/auto",
	"allreduce", "broadcast", "gather", "scatter", "alltoall",
	"reordered/ring", "reordered/rd-initcomm", "reordered/rd-endshuffle",
	"hierarchical", "hierarchical-reordered",
	"exec/allgather", "exec/allreduce", "exec/broadcast", "exec/gather", "exec/scatter", "exec/alltoall",
}

func (k collKind) String() string { return collKindNames[k] }

// collOp is one collective call of the fixed sequence.
type collOp struct {
	kind   collKind
	blk    int
	seq    int // op sequence number: inputs are a function of (rank, byte, seq)
	verify bool
	sample bool // traced pass: followed by its Execute* twin
	twin   collKind
}

// collMix is one world's per-round composition: how often each kind runs at
// each block size. The repeat counts were sized on the seed commit so that
// no kind exceeds a fifth of the workload's busy time (README).
type collMix struct {
	p    int
	reps []collRep
}

type collRep struct {
	kind collKind
	blk  int
	n    int
}

// collMixes: p=16 with 64 B blocks (x4 weight) and 16 KiB blocks (all-to-all
// at 4 KiB per pair), p=64 with 64 B and 1 KiB (no all-to-all at 1 KiB).
// All-to-all runs less often than the rest at p=64: one call there costs as
// much as ~100 small allgathers (p^2 pair blocks), and at equal counts it
// would be over a quarter of the busy time.
func collMixes() []collMix {
	m16 := collMix{p: 16}
	m64 := collMix{p: 64}
	for k := collKind(0); k < numFrontDoorKinds; k++ {
		if k == kAlltoall {
			m16.reps = append(m16.reps, collRep{k, 64, 8}, collRep{k, 4 << 10, 2})
			m64.reps = append(m64.reps, collRep{k, 64, 1})
			continue
		}
		m16.reps = append(m16.reps, collRep{k, 64, 8}, collRep{k, 16 << 10, 2})
		m64.reps = append(m64.reps, collRep{k, 64, 3}, collRep{k, 1 << 10, 3})
	}
	return []collMix{m16, m64}
}

// collSecondsPerRound is one round (both worlds) on the seed commit.
const collSecondsPerRound = 0.25

// collSequence renders `rounds` rounds of mix in a seeded order. Sequence
// numbers continue from seq0. In the traced pass one front-door op per round
// of each (kind, block) that has an Execute* twin is followed by it.
func collSequence(rng *rand.Rand, mix collMix, rounds, seq0 int, traced bool) [][]collOp {
	var all [][]collOp
	seq := seq0
	for r := 0; r < rounds; r++ {
		var round, ops []collOp
		for _, rep := range mix.reps {
			twin, hasTwin := execTwin[rep.kind]
			for i := 0; i < rep.n; i++ {
				// Traced pass: one op per (kind, block) and round is sampled,
				// so the twins' traffic is the same on every seed.
				round = append(round, collOp{kind: rep.kind, blk: rep.blk, sample: traced && hasTwin && i == 0, twin: twin})
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, op := range round {
			op.seq = seq
			// Every op whose per-rank output is at most 16 KiB is verified,
			// every 8th of the larger ones: at p=64 a full check of a 64 KiB
			// output on all ranks costs more than the collective itself.
			op.verify = mix.p*op.blk <= 16<<10 || seq%8 == 0
			seq++
			ops = append(ops, op)
			if op.sample {
				ops = append(ops, collOp{kind: op.twin, blk: op.blk, seq: op.seq, verify: op.verify})
			}
		}
		all = append(all, ops)
	}
	return all
}

var execTwin = map[collKind]collKind{
	kAllgatherRing: xAllgather, kAllreduce: xAllreduce, kBroadcast: xBroadcast,
	kGather: xGather, kScatter: xScatter, kAlltoall: xAlltoall,
}

// Closed-form data: every input byte is a function of (rank, byte index, op
// sequence number), linear in the rank so that the byte-wise sum of an
// allreduce has a closed form too: byte i of a block is
// byte(base + slope*ramp(i)), where base carries rank and sequence number.
func ramp(i int) int { return i*11 + (i>>8)*5 }

func dataBase(rank, seq int) int { return rank*37 + seq*101 + 7 }

func pairBase(src, dst, seq int) int { return src*37 + dst*59 + seq*101 + 7 }

// fillBlock writes the closed form into dst.
func fillBlock(dst []byte, base, slope int) {
	for i := range dst {
		dst[i] = byte(base + slope*ramp(i))
	}
}

// expectBlocks checks that got is a sequence of blk-byte blocks where block
// b holds the closed form with base baseOf(b); scratch is blk bytes.
func expectBlocks(got, scratch []byte, blk, slope int, baseOf func(b int) int) error {
	if len(got)%blk != 0 {
		return fmt.Errorf("recv buffer of %d bytes is not whole %d-byte blocks", len(got), blk)
	}
	scratch = scratch[:blk]
	for b := 0; b*blk < len(got); b++ {
		fillBlock(scratch, baseOf(b), slope)
		if block := got[b*blk : (b+1)*blk]; !bytes.Equal(block, scratch) {
			for i := range block {
				if block[i] != scratch[i] {
					return fmt.Errorf("recv byte %d is %#02x, want %#02x", b*blk+i, block[i], scratch[i])
				}
			}
		}
	}
	return nil
}

func addBytes(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// barrier is a reusable rendezvous of n parties; the last arriver stamps
// the time, which every party gets back. Op timing hangs off these stamps:
// an op starts when its last rank is ready and ends when its last rank has
// returned.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
	stamp time.Time
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.stamp = time.Now()
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return b.stamp
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.stamp
}

// collWorld is one persistent world: p ranks inside a single mpi.Run that
// stays up for the whole run, executing op lists handed over at the gate.
type collWorld struct {
	p             int
	cluster       *topology.Cluster
	blockLayout   []int // block-bunch: hierarchical node groups
	scatterLayout []int // block-scatter: hierarchical-reordered
	rmh, rdmh     core.Mapping
	progs         map[collKind]*sched.Program
	alltoallProgs map[int]*sched.Program // by block size
	stats         *mpi.Stats

	gate   *barrier // p ranks + controller: start/finish of an op list
	step   *barrier // p ranks: op start and op end
	ops    []collOp
	start  []time.Time // per op, stamped by the last rank ready
	end    []time.Time // per op, stamped by the last rank returned
	failed atomic.Int64
	errMu  sync.Mutex
	errs   []string
	done   chan error
}

func (w *collWorld) fail(op *collOp, rank int, err error) {
	w.failed.Add(1)
	w.errMu.Lock()
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf("p=%d %s blk=%d seq=%d rank %d: %v", w.p, op.kind, op.blk, op.seq, rank, err))
	}
	w.errMu.Unlock()
}

// startCollWorld builds the world's model inputs (cluster, layouts,
// mappings, twin programs) and starts its ranks; it returns once every rank
// has built its reordered communicators and is parked at the gate.
func startCollWorld(p int, opts ...mpi.Option) (*collWorld, error) {
	cluster, err := clusterOf(&topologies[tFat64].spec)
	if err != nil {
		return nil, err
	}
	w := &collWorld{p: p, cluster: cluster, gate: newBarrier(p + 1), step: newBarrier(p), done: make(chan error, 1)}
	if w.blockLayout, err = topology.Layout(cluster, p, topology.BlockBunch); err != nil {
		return nil, err
	}
	if w.scatterLayout, err = topology.Layout(cluster, p, topology.BlockScatter); err != nil {
		return nil, err
	}
	cyclic, err := topology.Layout(cluster, p, topology.CyclicScatter)
	if err != nil {
		return nil, err
	}
	dist, err := topology.NewDistances(cluster, cyclic)
	if err != nil {
		return nil, err
	}
	if w.rmh, err = core.RMH(dist, nil); err != nil {
		return nil, err
	}
	if w.rdmh, err = core.RDMH(dist, nil); err != nil {
		return nil, err
	}
	if err := w.compileTwins(); err != nil {
		return nil, err
	}
	ready := make(chan error, p)
	opts = append(opts, mpi.WithTimeout(150*time.Second))
	go func() {
		w.done <- mpi.Run(p, func(c *mpi.Comm) error { return w.rank(c, ready) }, opts...)
	}()
	for i := 0; i < p; i++ {
		if err := <-ready; err != nil {
			return nil, err
		}
	}
	return w, nil
}

// compileTwins pre-compiles one program per family for the Execute* twins.
func (w *collWorld) compileTwins() error {
	w.progs = make(map[collKind]*sched.Program)
	w.alltoallProgs = make(map[int]*sched.Program)
	build := func(fam sched.FamilyID, name string) (*sched.Program, error) {
		desc, err := fam.Desc()
		if err != nil {
			return nil, err
		}
		prog, err := desc.BuildCached(name, w.p)
		if err != nil {
			return nil, err
		}
		return prog, prog.EnsureExecutable()
	}
	for kind, b := range map[collKind]struct {
		fam  sched.FamilyID
		name string
	}{
		xAllgather: {sched.FamilyAllgather, "ring"},
		xAllreduce: {sched.FamilyAllreduce, "allreduce"},
		xBroadcast: {sched.FamilyBroadcast, "binomial-broadcast"},
		xGather:    {sched.FamilyGather, "binomial-gather"},
		xScatter:   {sched.FamilyScatter, "binomial-scatter"},
	} {
		prog, err := build(b.fam, b.name)
		if err != nil {
			return err
		}
		w.progs[kind] = prog
	}
	desc, err := sched.FamilyAlltoall.Desc()
	if err != nil {
		return err
	}
	for _, blk := range []int{64, 4 << 10} {
		prog, err := build(sched.FamilyAlltoall, desc.Baseline(w.p, w.p*blk))
		if err != nil {
			return err
		}
		w.alltoallProgs[blk] = prog
	}
	return nil
}

// run hands ops to the parked ranks and waits for them to finish.
func (w *collWorld) run(ops []collOp) {
	w.ops = ops
	w.start = make([]time.Time, len(ops))
	w.end = make([]time.Time, len(ops))
	w.gate.await() // release
	w.gate.await() // all ranks done
}

// stop lets the ranks return and waits for mpi.Run.
func (w *collWorld) stop() error {
	w.ops = nil
	w.gate.await()
	return <-w.done
}

// rankState is what one rank keeps for the life of the world.
type rankState struct {
	c           *mpi.Comm
	reRing      *collective.Reordered
	reRDInit    *collective.Reordered
	reRDShuffle *collective.Reordered
	send, recv  []byte
	scratch     []byte
}

func (w *collWorld) rank(c *mpi.Comm, ready chan<- error) error {
	rs := &rankState{c: c}
	var err error
	if rs.reRing, err = collective.NewReordered(c, w.rmh, sched.InitComm); err == nil {
		if rs.reRDInit, err = collective.NewReordered(c, w.rdmh, sched.InitComm); err == nil {
			rs.reRDShuffle, err = collective.NewReordered(c, w.rdmh, sched.EndShuffle)
		}
	}
	ready <- err
	if err != nil {
		return err
	}
	for {
		w.gate.await()
		if w.ops == nil {
			return nil
		}
		for i := range w.ops {
			op := &w.ops[i]
			rs.prepare(w, op)
			// Every rank gets the same stamps; rank 0 keeps them.
			t0 := w.step.await()
			err := rs.execute(w, op)
			t1 := w.step.await()
			if c.Rank() == 0 {
				w.start[i], w.end[i] = t0, t1
			}
			// Verification, outside the timed window.
			if err == nil && op.verify {
				err = rs.verify(w, op)
			}
			if err != nil {
				w.fail(op, c.Rank(), err)
			}
		}
		w.gate.await()
	}
}

func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// prepare fills this rank's input for op and poisons the output buffer.
func (rs *rankState) prepare(w *collWorld, op *collOp) {
	me, p, blk := rs.c.Rank(), w.p, op.blk
	rs.scratch = grow(rs.scratch, blk)
	switch op.kind {
	case kAllreduce, xAllreduce:
		rs.recv = grow(rs.recv, blk)
		fillBlock(rs.recv, dataBase(me, op.seq), 1)
		return
	case kBroadcast, xBroadcast:
		rs.recv = grow(rs.recv, blk)
		if me == 0 {
			fillBlock(rs.recv, dataBase(0, op.seq), 1)
			return
		}
	case kScatter, xScatter:
		rs.recv = grow(rs.recv, blk)
		rs.send = grow(rs.send, p*blk)
		if me == 0 {
			for r := 0; r < p; r++ {
				fillBlock(rs.send[r*blk:(r+1)*blk], dataBase(r, op.seq), 1)
			}
		}
	case kAlltoall, xAlltoall:
		rs.send = grow(rs.send, p*blk)
		rs.recv = grow(rs.recv, p*blk)
		for d := 0; d < p; d++ {
			fillBlock(rs.send[d*blk:(d+1)*blk], pairBase(me, d, op.seq), 1)
		}
	default: // allgather shapes and gather: one block in, p blocks out
		rs.send = grow(rs.send, blk)
		rs.recv = grow(rs.recv, p*blk)
		fillBlock(rs.send, dataBase(me, op.seq), 1)
	}
	if op.verify {
		for i := range rs.recv {
			rs.recv[i] = 0xEE
		}
	}
}

var hierCfg = sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling}

func (rs *rankState) execute(w *collWorld, op *collOp) error {
	c := rs.c
	switch op.kind {
	case kAllgatherRing:
		return collective.Allgather(c, rs.send, rs.recv, collective.AlgRing)
	case kAllgatherRD:
		return collective.Allgather(c, rs.send, rs.recv, collective.AlgRecursiveDoubling)
	case kAllgatherBruck:
		return collective.Allgather(c, rs.send, rs.recv, collective.AlgBruck)
	case kAllgatherAuto:
		return collective.Allgather(c, rs.send, rs.recv, collective.AlgAuto)
	case kAllreduce:
		return collective.Allreduce(c, rs.recv, addBytes)
	case kBroadcast:
		return collective.Broadcast(c, 0, rs.recv)
	case kGather:
		return collective.Gather(c, 0, rs.send, rs.rootRecv())
	case kScatter:
		return collective.Scatter(c, 0, rs.rootSend(), rs.recv)
	case kAlltoall:
		return collective.Alltoall(c, rs.send, rs.recv)
	case kReordRing:
		return rs.reRing.Allgather(rs.send, rs.recv, collective.AlgRing)
	case kReordRDInit:
		return rs.reRDInit.Allgather(rs.send, rs.recv, collective.AlgRecursiveDoubling)
	case kReordRDShuffle:
		return rs.reRDShuffle.Allgather(rs.send, rs.recv, collective.AlgRecursiveDoubling)
	case kHier:
		nodeOf := func(worldRank int) int { return w.cluster.NodeOf(w.blockLayout[worldRank]) }
		return collective.HierarchicalAllgather(c, rs.send, rs.recv, nodeOf, hierCfg)
	case kHierReord:
		return collective.HierarchicalReorderedAllgather(c, rs.send, rs.recv, w.cluster, w.scatterLayout, hierCfg)
	case xAllgather:
		return collective.ExecuteAllgather(c, w.progs[xAllgather], rs.send, rs.recv, nil)
	case xAllreduce:
		return collective.ExecuteAllreduce(c, w.progs[xAllreduce], rs.recv, addBytes)
	case xBroadcast:
		return collective.ExecuteBroadcast(c, w.progs[xBroadcast], rs.recv)
	case xGather:
		return collective.ExecuteGather(c, w.progs[xGather], 0, rs.send, rs.rootRecv())
	case xScatter:
		return collective.ExecuteScatter(c, w.progs[xScatter], rs.rootSend(), rs.recv)
	case xAlltoall:
		return collective.ExecuteAlltoall(c, w.alltoallProgs[op.blk], rs.send, rs.recv)
	}
	return fmt.Errorf("unknown collective kind %d", op.kind)
}

func (rs *rankState) rootRecv() []byte {
	if rs.c.Rank() == 0 {
		return rs.recv
	}
	return nil
}

func (rs *rankState) rootSend() []byte {
	if rs.c.Rank() == 0 {
		return rs.send
	}
	return nil
}

// verify compares this rank's output with the closed-form expectation.
func (rs *rankState) verify(w *collWorld, op *collOp) error {
	me, p, blk := rs.c.Rank(), w.p, op.blk
	switch op.kind {
	case kAllreduce, xAllreduce:
		// Sum over ranks r of byte(37r + g): 37*p(p-1)/2 + p*g, mod 256.
		base := 37*p*(p-1)/2 + p*dataBase(0, op.seq)
		return expectBlocks(rs.recv, rs.scratch, blk, p, func(int) int { return base })
	case kBroadcast, xBroadcast:
		return expectBlocks(rs.recv, rs.scratch, blk, 1, func(int) int { return dataBase(0, op.seq) })
	case kScatter, xScatter:
		return expectBlocks(rs.recv, rs.scratch, blk, 1, func(int) int { return dataBase(me, op.seq) })
	case kAlltoall, xAlltoall:
		return expectBlocks(rs.recv, rs.scratch, blk, 1, func(src int) int { return pairBase(src, me, op.seq) })
	case kGather, xGather:
		if me != 0 {
			return nil
		}
	}
	return expectBlocks(rs.recv, rs.scratch, blk, 1, func(r int) int { return dataBase(r, op.seq) })
}

// collInstance is the set-up coll-steady workload.
type collInstance struct {
	worlds []*collWorld
	lists  [][][]collOp // per world, per round: the measured sequence
	warm   [][][]collOp
}

func (ci *collInstance) stop() {
	for _, w := range ci.worlds {
		if err := w.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: world stop:", err)
		}
	}
}

// startCollInstance is coll-steady's set-up: both worlds up, sequences
// generated, warm-up rounds run.
func startCollInstance(cfg *runConfig, rounds int) (*collInstance, error) {
	ci := &collInstance{}
	rng := rand.New(rand.NewSource(cfg.seed))
	warmRounds := rounds/20 + 1
	for _, mix := range collMixes() {
		var opts []mpi.Option
		stats := mpi.NewStats()
		if cfg.trace { // the collector takes a lock per message: traced pass only
			opts = append(opts, mpi.WithStats(stats))
		}
		w, err := startCollWorld(mix.p, opts...)
		if err != nil {
			ci.stop()
			return nil, err
		}
		w.stats = stats
		ci.worlds = append(ci.worlds, w)
		ci.warm = append(ci.warm, collSequence(rng, mix, warmRounds, 0, false))
		ci.lists = append(ci.lists, collSequence(rng, mix, rounds, warmRounds*1000, cfg.trace))
	}
	// Warm-up, untimed: fills the compile cache and the buffer pools.
	for i, w := range ci.worlds {
		for _, round := range ci.warm[i] {
			w.run(round)
		}
		if n := w.failed.Load(); n > 0 {
			ci.stop()
			return nil, fmt.Errorf("coll-steady warm-up: %d failures: %v", n, w.errs)
		}
	}
	return ci, nil
}

// traffic is the worlds' total message and byte count so far (traced pass).
func (ci *collInstance) traffic() (msgs, bytes int64) {
	for _, w := range ci.worlds {
		msgs += w.stats.TotalMessages()
		bytes += w.stats.TotalBytes()
	}
	return msgs, bytes
}

// kindKey names one line of coll-steady's mix.
type kindKey struct {
	kind collKind
	p    int
	blk  int
}

// collObs is what the measured rounds of coll-steady observed.
type collObs struct {
	samples
	byKind      map[kindKey][]float64 // op latencies in microseconds
	rankSeconds float64               // sum over ops of ranks x op time, for the wait share
	twinDiffs   []float64             // front door minus its Execute* twin, per sampled op
}

// measureColl runs the measured rounds, alternating the worlds, and reads
// each op's window off the barrier stamps.
func measureColl(cfg *runConfig, inst *collInstance, rounds int) *collObs {
	obs := &collObs{byKind: make(map[kindKey][]float64)}
	for r := 0; r < rounds; r++ {
		obs.nextRound()
		for i, w := range inst.worlds {
			w.run(inst.lists[i][r])
			for j := range w.ops {
				op := &w.ops[j]
				lat := w.end[j].Sub(w.start[j])
				key := kindKey{op.kind, w.p, op.blk}
				obs.byKind[key] = append(obs.byKind[key], us(lat))
				if op.kind >= numFrontDoorKinds {
					continue // twins are layer replay, not workload ops
				}
				obs.add(lat, nil)
				obs.rankSeconds += float64(w.p) * lat.Seconds()
				if !cfg.trace {
					continue
				}
				id := op.seq + i*1_000_000
				root := cfg.rec.add("coll.op/"+op.kind.String(), w.start[j], w.end[j], -1, id)
				if op.sample {
					twinLat := w.end[j+1].Sub(w.start[j+1])
					cfg.rec.add("collective."+op.twin.String(), w.start[j+1], w.end[j+1], root, id)
					// Only these families' front doors run on the executor.
					if op.kind == kAllgatherRing || op.kind == kAllreduce || op.kind == kAlltoall {
						obs.twinDiffs = append(obs.twinDiffs, us(lat-twinLat))
					}
				}
			}
		}
	}
	for _, w := range inst.worlds {
		obs.failed += int(w.failed.Load())
		obs.errs = append(obs.errs, w.errs...)
	}
	return obs
}

// busiestKind returns the front-door kind with the largest share of the
// busy time. Whoever re-sizes the mix finds every op's kind and window in
// bench/out/trace-coll-steady.json.
func (o *collObs) busiestKind() (collKind, float64) {
	perKind := make(map[collKind]float64)
	for key, lats := range o.byKind {
		var sum float64
		for _, l := range lats {
			sum += l
		}
		if key.kind < numFrontDoorKinds {
			perKind[key.kind] += sum
		}
	}
	var busiest collKind
	for kind, t := range perKind {
		if t > perKind[busiest] {
			busiest = kind
		}
	}
	return busiest, perKind[busiest] / us(o.busy)
}

func runCollSteady(cfg *runConfig) (*result, error) {
	res := &result{Workload: wCollSteady}
	rounds := cfg.rounds(collSecondsPerRound)
	inst, setupS, err := repeatSetup(cfg.setups,
		func() (*collInstance, error) { return startCollInstance(cfg, rounds) },
		func(ci *collInstance) { ci.stop() })
	if err != nil {
		return nil, err
	}
	defer inst.stop()

	before, memBefore := ownMetrics(), ownMem()
	msgs0, bytes0 := inst.traffic()
	obs := measureColl(cfg, inst, rounds)
	memAfter := ownMem()
	d := ownMetrics().delta(before)
	res.endToEnd(&obs.samples, setupS, allocKB(memBefore, memAfter, obs.attempted))

	hits, misses := d.sum("schedule_cache_hits_total"), d.sum("schedule_cache_misses_total")
	res.check(ratio(hits, hits+misses) >= 0.99,
		"coll-steady bypasses compile: schedule cache hit ratio %.4f (%v hits, %v misses)", ratio(hits, hits+misses), hits, misses)
	// Sizing, not correctness: the shares move with every change to one kind's
	// speed, which is what this workload is there to show.
	kind, share := obs.busiestKind()
	res.note(share <= 0.20, "mix sized so that no collective kind exceeds 20%% of busy time: %s has %.1f%%", kind, 100*share)

	if cfg.trace {
		ops := float64(obs.attempted)
		msgs, bytes := inst.traffic()
		res.set("mpi.msgs_per_op", ratio(float64(msgs-msgs0), ops), "count")
		res.set("mpi.bytes_per_op", ratio(float64(bytes-bytes0), ops), "B")
		res.set("mpi.recv_wait_share", ratio(d.sum("mpi_recv_wait_seconds_sum"), obs.rankSeconds), "ratio")
		res.set("collective.transfers_per_op", ratio(d.sum("schedule_transfers_total"), ops), "count")
		res.set("collective.stage_time_share", ratio(d.sum("schedule_stage_seconds_sum"), obs.busy.Seconds()), "ratio")
		res.set("obs.profiles_recorded", d.sum("obs_profiles_recorded_total"), "count")
		res.set("obs.profile_drops", d.sum("obs_profile_drops_total"), "count")
		res.set("sched.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
		obs.collLayers(res)
		pingPong(cfg, res)
		res.procLayers(memBefore, memAfter, obs.attempted)
	}
	return res, nil
}

// collLayers reports the layer-replay timings of the traced pass.
func (o *collObs) collLayers(res *result) {
	medianOf := func(kind collKind, p, blk int) float64 { return median(o.byKind[kindKey{kind, p, blk}]) }
	for twin, name := range map[collKind]string{
		xAllgather: "allgather", xAllreduce: "allreduce", xBroadcast: "broadcast",
		xGather: "gather", xScatter: "scatter", xAlltoall: "alltoall",
	} {
		var all []float64
		for key, lats := range o.byKind {
			if key.kind == twin {
				all = append(all, lats...)
			}
		}
		res.set("collective.exec_us."+name, median(all), "us")
	}
	res.set("collective.select_compile_us", median(o.twinDiffs), "us")
	res.set("collective.hier_us", medianOf(kHier, 16, 16<<10), "us")
	res.set("collective.hier_reord_us", medianOf(kHierReord, 16, 16<<10), "us")
	res.set("collective.reord_fix_us", medianOf(kReordRDInit, 64, 1<<10)-medianOf(kAllgatherRD, 64, 1<<10), "us")
}

// pingPong measures one Send+Recv hop on a p=2 world: mpi.sendrecv_us.
func pingPong(cfg *runConfig, res *result) {
	const iters = 2000
	payload := make([]byte, 64)
	var elapsed time.Duration
	err := mpi.Run(2, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, payload); err != nil {
					return err
				}
				if _, err := c.Recv(peer, 2); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if err := c.Send(peer, 2, payload); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			elapsed = time.Since(start)
			cfg.rec.add("mpi.pingpong", start, start.Add(elapsed), -1, -1)
		}
		return nil
	})
	if err != nil {
		res.check(false, "mpi ping-pong: %v", err)
		return
	}
	res.set("mpi.sendrecv_us", us(elapsed)/(2*iters), "us")
}
