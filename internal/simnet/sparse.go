// Sparse stage pricing: the one production pricer, and the one stage walk
// (walk) every pricing entry point visits — PriceProgram and Price,
// Explain and ExplainProgram, Profile and ProfileSchedule, PricePipelined
// and MaxStageLinkLoads.
//
// A map-per-resource accounting allocates five maps per stage and walks
// every route twice. The mapping heuristics price thousands of layouts and
// the experiment drivers price schedules up to p = 65536, where per-stage
// map churn dominates. The sparse path replaces the maps with flat
// epoch-stamped load slices indexed by dense resource ids — global core,
// global socket, interned network link — held in a priceScratch that one
// walk reuses across all stages and returns to its Machine. A counter read
// whose stamp is not the current stage's epoch is zero; starting a stage is
// a single epoch increment, not a clear of the touched entries, so
// per-stage cost is O(transfers × route length) regardless of machine size.
//
// Routes are deterministic per (srcNode, dstNode) pair, so the scratch also
// interns each pair's hop count and link-id list: the lists sit back to back
// in one arena behind a flat open-addressed index (flatIndex), and a second
// such index gives the directed links their dense ids. The aggregation pass
// notes each transfer's route for the pricing pass, and repeated stages (every
// ring repeat, every heuristic probe of the same machine) never re-route. A
// machine that is new on every request — mapd's cold path — pays one RouteDir
// and one Hops per node pair, one allocation-free lookup per transfer and no
// per-route slice or map growth.
//
// Every arithmetic step mirrors the retained dense reference (dense_test.go)
// operation for operation — same operands, same order — so prices are
// bit-identical to it; the equivalence suite enforces that with float
// equality.
package simnet

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/sched"
	"repro/internal/topology"
)

// epochCounts is a flat epoch-stamped counter array: load[i] is valid only
// when epoch[i] matches the scratch's current epoch, so resetting all
// counters is one epoch increment.
type epochCounts struct {
	load  []int32
	epoch []uint32
}

// grow ensures capacity for ids [0, n). Fresh entries carry epoch 0, which
// never matches a live epoch (see beginStage).
func (e *epochCounts) grow(n int) {
	if len(e.load) >= n {
		return
	}
	load := make([]int32, n)
	epoch := make([]uint32, n)
	copy(load, e.load)
	copy(epoch, e.epoch)
	e.load, e.epoch = load, epoch
}

// inc bumps counter i in epoch ep.
func (e *epochCounts) inc(i int, ep uint32) {
	if e.epoch[i] != ep {
		e.epoch[i] = ep
		e.load[i] = 1
		return
	}
	e.load[i]++
}

// get reads counter i in epoch ep; a stale stamp reads as zero.
func (e *epochCounts) get(i int, ep uint32) int32 {
	if e.epoch[i] != ep {
		return 0
	}
	return e.load[i]
}

// clearStamps invalidates every entry (used on epoch wraparound).
func (e *epochCounts) clearStamps() {
	for i := range e.epoch {
		e.epoch[i] = 0
	}
}

// priceScratch holds one pricing pass's sparse load accounting plus the
// machine-lifetime route and link-capacity caches. It is obtained from and
// returned to a per-Machine pool, so the caches warm up once per machine and
// steady-state pricing does not allocate.
type priceScratch struct {
	epoch uint32

	coreSend epochCounts // per global core: messages sent this stage
	coreRecv epochCounts // per global core: messages received this stage
	sockMem  epochCounts // per global socket: memory-bandwidth clients
	qpiOut   epochCounts // per sending side's global socket: QPI crossings

	// Link interning: links assigns each directed link a dense id on first
	// sight; linkCap memoizes the link's aggregate directional capacity
	// (CapNetPerCable × multiplicity) and linkLoad/linkEpoch are the link's
	// epoch-stamped stage load.
	links     flatIndex[topology.DirLink]
	linkCap   []float64
	linkLoad  []int32
	linkEpoch []uint32

	// Route interning: routes maps a packed (srcNode, dstNode) pair to its
	// offset in routeArena, where the route is stored as hop count, link
	// count, link ids. stageRoutes[i] is the offset for transfer i of the
	// stage aggregateStage last saw (network transfers only), so the pricing
	// pass over the same list looks nothing up.
	routes      flatIndex[uint64]
	routeArena  []int32
	routeBuf    []topology.DirLink
	stageRoutes []int32
}

// flatIndex is an open-addressed, linearly probed hash table from K to an
// int32: power-of-two size, at most half full, no deletion. It stands where
// the pricing passes went through a Go map per transfer, whose hashing and
// growth dominated pricing on a cold machine. Callers supply the hash; keys
// are compared exactly, so a poor hash costs probes, never correctness.
type flatIndex[K comparable] struct {
	slots []flatSlot[K]
	shift uint // 64 - log2(len(slots))
	count int
}

// flatSlot is one entry; hash 0 marks it empty (stored hashes have bit 0 set).
type flatSlot[K comparable] struct {
	hash uint64
	key  K
	val  int32
}

// flatIndexMin is the initial table size (a 10-node all-to-all's routes).
const flatIndexMin = 256

// fibHash, the Fibonacci multiplier, spreads structured keys (packed node
// pairs, link endpoints) over the high bits flatIndex indexes by.
const fibHash = 0x9E3779B97F4A7C15

// slot returns the slot holding key or, when absent, the empty slot where it
// belongs (fill it with put).
func (t *flatIndex[K]) slot(key K, hash uint64) *flatSlot[K] {
	hash |= 1
	mask := len(t.slots) - 1
	for i := int(hash >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.hash == 0 || (s.hash == hash && s.key == key) {
			return s
		}
	}
}

// put fills the empty slot s that slot(key, hash) returned, doubling the
// table when it passes half full (which invalidates s).
func (t *flatIndex[K]) put(s *flatSlot[K], key K, hash uint64, val int32) {
	*s = flatSlot[K]{hash: hash | 1, key: key, val: val}
	if t.count++; t.count*2 > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
}

// resize rebuilds the table with n slots (a power of two).
func (t *flatIndex[K]) resize(n int) {
	old := t.slots
	t.slots = make([]flatSlot[K], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if o := &old[i]; o.hash != 0 {
			*t.slot(o.key, o.hash) = *o
		}
	}
}

// getScratch returns a pricing scratch sized for m's cluster: the machine's
// idle one, or a new one while another pass holds it. Return it with
// m.scratch.Store when done. Mutating a Machine's Cluster or Params while
// pricing runs is outside the contract (cached routes would go stale).
func (m *Machine) getScratch() *priceScratch {
	sc := m.scratch.Swap(nil)
	if sc == nil {
		sc = &priceScratch{}
		sc.links.resize(flatIndexMin)
		sc.routes.resize(flatIndexMin)
	}
	cores := m.Cluster.TotalCores()
	sockets := m.Cluster.Nodes * m.Cluster.SocketsPerNode
	sc.coreSend.grow(cores)
	sc.coreRecv.grow(cores)
	sc.sockMem.grow(sockets)
	sc.qpiOut.grow(sockets)
	return sc
}

// beginStage opens a fresh accounting epoch, invalidating every counter in
// O(1). On the (2³²nd) wraparound the stamps are cleared so a stale entry
// cannot alias the new epoch.
func (sc *priceScratch) beginStage() {
	sc.epoch++
	if sc.epoch == 0 {
		sc.coreSend.clearStamps()
		sc.coreRecv.clearStamps()
		sc.sockMem.clearStamps()
		sc.qpiOut.clearStamps()
		for i := range sc.linkEpoch {
			sc.linkEpoch[i] = 0
		}
		sc.epoch = 1
	}
}

// validateLayout mirrors topology.ValidateLayout — an injective placement of
// ranks onto existing cores — on the scratch's epoch-stamped counters, so
// steady-state pricing skips the reference implementation's seen-map
// allocation. It burns one private epoch as the seen-set.
func (sc *priceScratch) validateLayout(c *topology.Cluster, layout []int) error {
	sc.beginStage()
	ep := sc.epoch
	total := c.TotalCores()
	for r, core := range layout {
		if core < 0 || core >= total {
			return fmt.Errorf("topology: rank %d placed on core %d outside cluster (0..%d)", r, core, total-1)
		}
		if sc.coreSend.epoch[core] == ep {
			return fmt.Errorf("topology: ranks %d and %d both placed on core %d", sc.coreSend.load[core]-1, r, core)
		}
		sc.coreSend.epoch[core] = ep
		sc.coreSend.load[core] = int32(r) + 1
	}
	return nil
}

// linkIDOf returns dl's dense id, assigning the next one (and memoizing the
// link's capacity) on first sight.
func (sc *priceScratch) linkIDOf(net topology.Network, p *Params, dl topology.DirLink) int32 {
	h := uint64(dl.Link.A)<<32 ^ uint64(dl.Link.B)<<3 ^ uint64(dl.Link.Kind)<<1
	if dl.Forward {
		h ^= 1
	}
	h *= fibHash
	s := sc.links.slot(dl, h)
	if s.hash != 0 {
		return s.val
	}
	id := int32(len(sc.linkCap))
	sc.links.put(s, dl, h, id)
	sc.linkCap = append(sc.linkCap, p.CapNetPerCable*float64(net.Multiplicity(dl.Link)))
	sc.linkLoad = append(sc.linkLoad, 0)
	sc.linkEpoch = append(sc.linkEpoch, 0)
	return id
}

// routeAt returns the arena offset of the interned route from srcNode to
// dstNode (distinct nodes), asking the network for the route and its hop
// count on first sight of the pair only. routeArena[at] is the hop count,
// routeLinks(at) the link ids.
func (sc *priceScratch) routeAt(net topology.Network, p *Params, srcNode, dstNode int) int32 {
	key := uint64(uint32(srcNode))<<32 | uint64(uint32(dstNode))
	h := key * fibHash
	s := sc.routes.slot(key, h)
	if s.hash != 0 {
		return s.val
	}
	at := int32(len(sc.routeArena))
	sc.routes.put(s, key, h, at)
	sc.routeBuf = net.RouteDir(sc.routeBuf[:0], srcNode, dstNode)
	sc.routeArena = append(sc.routeArena, int32(net.Hops(srcNode, dstNode)), int32(len(sc.routeBuf)))
	for _, dl := range sc.routeBuf {
		sc.routeArena = append(sc.routeArena, sc.linkIDOf(net, p, dl))
	}
	return at
}

// routeLinks returns the link ids of the route interned at arena offset at.
func (sc *priceScratch) routeLinks(at int32) []int32 {
	return sc.routeArena[at+2 : at+2+sc.routeArena[at+1]]
}

// costLine is one transfer's size-independent cost line under its stage's
// aggregated loads: at block size b the transfer takes
// alpha + (float64(n)*b)*inv seconds.
type costLine struct {
	alpha float64 // channel latency
	inv   float64 // worst effective seconds-per-byte on the path
	n     int32   // blocks transferred
}

// walk is the one stage walk behind every pricing entry point. It takes the
// machine's scratch, checks the arguments (a size-independent caller passes
// blockBytes 1), and visits s's Pre stages, then its main stages. Each
// stage's loads are aggregated once; line receives every transfer's cost
// line in transfer order, then stage is called with the stage's
// pricing-view index i (the index every Breakdown, profile and
// PriceStageMap shares) while sc still holds the stage's loads. ctx is
// consulted once per stage; an expired ctx abandons the walk with its
// error. s is read, never written.
func (m *Machine) walk(ctx context.Context, s *sched.Schedule, layout []int, blockBytes int, line func(costLine), stage func(sc *priceScratch, i int, st *sched.Stage) error) error {
	sc := m.getScratch()
	defer m.scratch.Store(sc)
	if err := m.checkArgs(sc, s.P, layout, blockBytes); err != nil {
		return err
	}
	i := 0
	for _, stages := range [2][]sched.Stage{s.Pre, s.Stages} {
		for k := range stages {
			if err := ctx.Err(); err != nil {
				return err
			}
			st := &stages[k]
			m.aggregateStage(sc, st.Transfers, layout)
			for j := range st.Transfers {
				l, err := m.transferLineSparse(sc, st.Transfers, j, layout)
				if err != nil {
					return err
				}
				line(l)
			}
			if err := stage(sc, i, st); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// seconds evaluates the line at block size b.
func (l *costLine) seconds(b float64) float64 {
	bytes := float64(l.n) * b
	return l.alpha + bytes*l.inv
}

// slowest is the running maximum of a stage's transfer times at block size
// b: one execution of the stage takes the slowest line's time.
type slowest struct {
	b, worst float64
}

// add takes line l into the maximum.
func (s *slowest) add(l costLine) {
	if t := l.seconds(s.b); t > s.worst {
		s.worst = t
	}
}

// take returns the stage's time and resets the maximum for the next stage.
func (s *slowest) take() float64 {
	t := s.worst
	s.worst = 0
	return t
}

// aggregateStage opens a fresh epoch and accumulates every shared resource's
// load for the stage's transfer list — the size-independent first pass of
// walk.
func (m *Machine) aggregateStage(sc *priceScratch, transfers []sched.Transfer, layout []int) {
	sc.beginStage()
	ep := sc.epoch
	c := m.Cluster
	if cap(sc.stageRoutes) < len(transfers) {
		sc.stageRoutes = make([]int32, len(transfers))
	}
	sc.stageRoutes = sc.stageRoutes[:len(transfers)]
	for i := range transfers {
		tr := &transfers[i]
		src, dst := layout[tr.Src], layout[tr.Dst]
		sc.coreSend.inc(src, ep)
		sc.coreRecv.inc(dst, ep)
		srcNode, dstNode := c.NodeOf(src), c.NodeOf(dst)
		switch {
		case srcNode != dstNode:
			if c.Net == nil {
				continue // uniform inter-node channel, no link accounting
			}
			at := sc.routeAt(c.Net, &m.Params, srcNode, dstNode)
			sc.stageRoutes[i] = at
			for _, id := range sc.routeLinks(at) {
				if sc.linkEpoch[id] != ep {
					sc.linkEpoch[id] = ep
					sc.linkLoad[id] = 1
				} else {
					sc.linkLoad[id]++
				}
			}
		case !c.SameSocket(src, dst):
			// The dense reference keys QPI load by (node, sending local
			// socket), which is exactly the sender's global socket index.
			sc.qpiOut.inc(c.SocketOf(src), ep)
			sc.sockMem.inc(c.SocketOf(src), ep)
			sc.sockMem.inc(c.SocketOf(dst), ep)
		default:
			sc.sockMem.inc(c.SocketOf(src), ep)
		}
	}
}

// transferLineSparse computes the size-independent cost line of transfer i
// of the list aggregateStage last saw, under the stage's aggregated loads:
// its channel latency alpha and the worst effective seconds-per-byte maxInv
// across the resources it crosses.
func (m *Machine) transferLineSparse(sc *priceScratch, transfers []sched.Transfer, i int, layout []int) (costLine, error) {
	tr := &transfers[i]
	p := &m.Params
	ep := sc.epoch
	src, dst := layout[tr.Src], layout[tr.Dst]
	endpoint := sc.coreSend.get(src, ep)
	if r := sc.coreRecv.get(dst, ep); r > endpoint {
		endpoint = r
	}

	srcNode, dstNode := m.Cluster.NodeOf(src), m.Cluster.NodeOf(dst)
	var alpha, streamBeta float64
	// maxInv is the largest effective seconds-per-byte across the per-stream
	// bandwidth (scaled by endpoint serialisation) and every shared resource
	// on the path. The comparisons are inlined (no closure) to keep the hot
	// loop allocation-free.
	maxInv := 0.0
	switch {
	case srcNode != dstNode:
		hops := 2 // uniform inter-node channel
		if m.Cluster.Net != nil {
			at := sc.stageRoutes[i]
			hops = int(sc.routeArena[at])
			for _, id := range sc.routeLinks(at) {
				var load int32
				if sc.linkEpoch[id] == ep {
					load = sc.linkLoad[id]
				}
				if inv := float64(load) / sc.linkCap[id]; inv > maxInv {
					maxInv = inv
				}
			}
		}
		alpha = p.AlphaNet + p.AlphaPerHop*float64(hops)
		streamBeta = 1 / p.StreamNet
	case !m.Cluster.SameSocket(src, dst):
		alpha = p.AlphaQPI
		streamBeta = 1 / p.StreamQPI
		srcSock, dstSock := m.Cluster.SocketOf(src), m.Cluster.SocketOf(dst)
		if inv := float64(sc.qpiOut.get(srcSock, ep)) / p.CapQPIDir; inv > maxInv {
			maxInv = inv
		}
		if inv := float64(sc.sockMem.get(srcSock, ep)) / p.CapSocketMem; inv > maxInv {
			maxInv = inv
		}
		if inv := float64(sc.sockMem.get(dstSock, ep)) / p.CapSocketMem; inv > maxInv {
			maxInv = inv
		}
	case src == dst:
		return costLine{}, fmt.Errorf("simnet: transfer between rank %d and %d lands on one core", tr.Src, tr.Dst)
	default:
		alpha = p.AlphaShm
		streamBeta = 1 / p.StreamShm
		if inv := float64(sc.sockMem.get(m.Cluster.SocketOf(src), ep)) / p.CapSocketMem; inv > maxInv {
			maxInv = inv
		}
	}
	if inv := streamBeta * float64(endpoint); inv > maxInv {
		maxInv = inv
	}
	return costLine{alpha: alpha, inv: maxInv, n: tr.N}, nil
}
