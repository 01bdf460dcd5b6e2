// Package mpi provides a small message-passing runtime with MPI semantics:
// a world of concurrently executing processes (goroutines) addressed by
// rank, tagged point-to-point communication, and communicators that can be
// split, duplicated and — the paper's mechanism — *reordered*, so that
// collectives run over a permuted rank space while the application keeps its
// original ranks.
//
// The runtime exists because this reproduction has no MPI library to link
// against: it supplies the semantics the paper's framework manipulates
// (communicators, rank reordering, communication ordering) with real
// concurrency and real data movement, so the correctness-sensitive parts of
// the design — in particular the output-buffer order preservation of paper
// Section V-B — are genuinely exercised rather than assumed.
//
// Observability: WithTracer installs a trace.Recorder that captures every
// send, delivery, receive match and receive block/unblock per rank (package
// trace), and the watchdog that detects stuck worlds now produces a
// blocked-rank report — every rank's pending receive plus the unmatched
// messages sitting in its inbox — instead of a bare timeout.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Errors returned by the runtime.
var (
	// ErrTimeout is wrapped by receive errors when the world deadline
	// passes, which almost always indicates a communication deadlock or a
	// rank mismatch in a collective call.
	ErrTimeout = errors.New("mpi: receive timed out (deadlock?)")
)

// message is one in-flight point-to-point message.
type message struct {
	ctx   uint64
	src   int // communicator-local rank of the sender
	tag   int
	data  []byte
	owner *proc // the lender when data is a view (SendLent); nil otherwise
}

// proc is the per-rank runtime state.
type proc struct {
	world *World
	rank  int // world rank

	mu    sync.Mutex
	cond  *sync.Cond
	inbox []message

	// Pending-receive bookkeeping for the deadlock report: valid while a
	// Recv is blocked in await (guarded by mu).
	waiting bool
	waitCtx uint64
	waitSrc int
	waitTag int

	// lent counts the views this rank has sent with SendLent that no
	// receiver has released yet; parked is set while WaitLent waits for it
	// to reach zero, so a release wakes the rank only then.
	lent   atomic.Int64
	parked atomic.Bool
}

// commDesc describes a registered communicator context for diagnostics.
type commDesc struct {
	kind string // "world", "dup", "split", "reorder"
	size int
}

// World is a set of communicating processes. All processes share one
// deadline: if any receive waits longer, it fails with ErrTimeout.
type World struct {
	size    int
	procs   []*proc
	nextCtx atomic.Uint64
	timeout time.Duration
	stats   *Stats
	tracer  *trace.Recorder

	commMu sync.Mutex
	comms  map[uint64]commDesc

	valuesMu sync.Mutex
	values   map[string]any // world-scoped settings, see values.go

	dead   atomic.Bool
	deadMu sync.Mutex
	report string // blocked-rank report built when the watchdog fires
}

// Option configures a World.
type Option func(*World)

// WithTimeout sets the receive deadline (default 60s). A non-positive value
// disables the deadline.
func WithTimeout(d time.Duration) Option {
	return func(w *World) { w.timeout = d }
}

// Run spawns size processes, calls body once per rank with that rank's world
// communicator, waits for all of them and returns the combined error (nil if
// every rank succeeded). Panics inside a rank are recovered and reported as
// that rank's error. If the world deadline fires, the returned error carries
// the watchdog's blocked-rank report naming every stuck receive and the
// unmatched messages near it.
func Run(size int, body func(c *Comm) error, opts ...Option) error {
	if size <= 0 {
		return fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{size: size, timeout: 60 * time.Second, comms: make(map[uint64]commDesc)}
	for _, o := range opts {
		o(w)
	}
	w.procs = make([]*proc, size)
	for r := 0; r < size; r++ {
		p := &proc{world: w, rank: r}
		p.cond = sync.NewCond(&p.mu)
		w.procs[r] = p
	}
	worldCtx := w.nextCtx.Add(1)
	w.registerComm(worldCtx, "world", size)
	metricActiveWorlds.Inc()
	defer metricActiveWorlds.Dec()

	var watchdog *time.Timer
	if w.timeout > 0 {
		watchdog = time.AfterFunc(w.timeout, w.expire)
		defer watchdog.Stop()
	}

	errs := make([]error, size)
	var wg sync.WaitGroup
	members := make([]int, size)
	for i := range members {
		members[i] = i
	}
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
				}
			}()
			c := &Comm{world: w, ctx: worldCtx, members: members, rank: rank}
			if w.tracer != nil {
				w.tracer.Record(trace.Event{
					Kind: trace.KindCommCreate, Rank: rank, Ctx: worldCtx,
					Peer: -1, Bytes: size, Name: "world",
				})
			}
			errs[rank] = body(c)
		}(r)
	}
	wg.Wait()
	err := errors.Join(errs...)
	if err != nil {
		if report := w.deadlockReport(); report != "" {
			err = fmt.Errorf("%w\n%s", err, report)
		}
	}
	return err
}

// expire is the watchdog body: it marks the world dead, snapshots every
// rank's pending receive and unmatched inbox into the blocked-rank report,
// and only then wakes the blocked receivers so they return ErrTimeout. The
// report is therefore complete before any rank observes the timeout.
func (w *World) expire() {
	w.dead.Store(true)
	report := w.buildReport()
	w.deadMu.Lock()
	w.report = report
	w.deadMu.Unlock()
	notifyWatchdog(report)
	for _, p := range w.procs {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// buildReport renders the blocked-rank report: one line per blocked rank
// with its pending (src, tag, communicator) and a summary of the unmatched
// messages sitting in its inbox — the near-miss tags that explain most
// schedule bugs — and one line per rank parked in WaitLent with its count of
// unreleased views.
func (w *World) buildReport() string {
	var b strings.Builder
	blocked := 0
	for _, p := range w.procs {
		if p.parked.Load() {
			blocked++
			fmt.Fprintf(&b, "  rank %d: awaiting release of %d lent views\n", p.rank, p.lent.Load())
			continue
		}
		p.mu.Lock()
		if !p.waiting {
			p.mu.Unlock()
			continue
		}
		blocked++
		fmt.Fprintf(&b, "  rank %d: awaiting (src=%d tag=%d) on %s",
			p.rank, p.waitSrc, p.waitTag, w.describeCtx(p.waitCtx))
		if len(p.inbox) == 0 {
			b.WriteString("; inbox empty\n")
			p.mu.Unlock()
			continue
		}
		fmt.Fprintf(&b, "; inbox holds %d unmatched: %s\n",
			len(p.inbox), summarizeInbox(p.inbox, w))
		p.mu.Unlock()
	}
	if blocked == 0 {
		return ""
	}
	return fmt.Sprintf("mpi: blocked-rank report (%d of %d ranks blocked after %v):\n%s",
		blocked, w.size, w.timeout, strings.TrimRight(b.String(), "\n"))
}

// summarizeInbox groups a rank's unmatched messages by (ctx, src, tag) and
// renders at most eight groups, most messages first.
func summarizeInbox(inbox []message, w *World) string {
	type key struct {
		ctx uint64
		src int
		tag int
	}
	counts := make(map[key]int)
	bytes := make(map[key]int)
	for _, m := range inbox {
		k := key{m.ctx, m.src, m.tag}
		counts[k]++
		bytes[k] += len(m.data)
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].tag < keys[j].tag
	})
	const maxGroups = 8
	parts := make([]string, 0, maxGroups+1)
	for i, k := range keys {
		if i == maxGroups {
			parts = append(parts, fmt.Sprintf("… %d more groups", len(keys)-maxGroups))
			break
		}
		parts = append(parts, fmt.Sprintf("(src=%d tag=%d on %s: %d msg, %d B)",
			k.src, k.tag, w.describeCtx(k.ctx), counts[k], bytes[k]))
	}
	return strings.Join(parts, ", ")
}

// deadlockReport returns the watchdog's blocked-rank report, or "" if the
// deadline never fired or nothing was blocked.
func (w *World) deadlockReport() string {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	return w.report
}

// registerComm records a communicator context for diagnostics. Every member
// registers the same description, so the write is idempotent.
func (w *World) registerComm(ctx uint64, kind string, size int) {
	w.commMu.Lock()
	w.comms[ctx] = commDesc{kind: kind, size: size}
	w.commMu.Unlock()
}

// describeCtx renders a communicator context for error messages: kind and
// size when registered, the raw id otherwise.
func (w *World) describeCtx(ctx uint64) string {
	w.commMu.Lock()
	d, ok := w.comms[ctx]
	w.commMu.Unlock()
	if !ok {
		return fmt.Sprintf("ctx=%d", ctx)
	}
	return fmt.Sprintf("%s[size %d] ctx=%d", d.kind, d.size, ctx)
}

// deliver enqueues a message into the inbox of world rank dst. worldSrc is
// the sender's world rank (m.src carries the communicator-local rank used
// for matching).
func (w *World) deliver(dst, worldSrc int, m message) {
	if w.stats != nil {
		w.stats.record(worldSrc, dst, len(m.data))
	}
	if w.tracer != nil {
		w.tracer.Record(trace.Event{
			Kind: trace.KindDeliver, Rank: dst, Ctx: m.ctx,
			Peer: m.src, Tag: m.tag, Bytes: len(m.data),
		})
	}
	p := w.procs[dst]
	p.mu.Lock()
	p.inbox = append(p.inbox, m)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// await blocks until a message matching (ctx, src, tag) is available in the
// inbox of world rank self, removes and returns its payload.
func (w *World) await(self int, ctx uint64, src, tag int) (Payload, error) {
	p := w.procs[self]
	p.mu.Lock()
	defer p.mu.Unlock()
	blocked := false
	var blockedAt time.Time
	for {
		for i := range p.inbox {
			m := &p.inbox[i]
			if m.ctx == ctx && m.src == src && m.tag == tag {
				data := Payload{Data: m.data, owner: m.owner}
				p.inbox = append(p.inbox[:i], p.inbox[i+1:]...)
				if blocked {
					p.waiting = false
					metricRecvWait.Observe(time.Since(blockedAt).Seconds())
					if w.tracer != nil {
						w.tracer.Record(trace.Event{
							Kind: trace.KindRecvUnblock, Rank: self, Ctx: ctx,
							Peer: src, Tag: tag, Bytes: len(data.Data),
						})
					}
				}
				if w.tracer != nil {
					w.tracer.Record(trace.Event{
						Kind: trace.KindRecvMatch, Rank: self, Ctx: ctx,
						Peer: src, Tag: tag, Bytes: len(data.Data),
					})
				}
				return data, nil
			}
		}
		if w.dead.Load() {
			p.waiting = false
			return Payload{}, fmt.Errorf("mpi: rank %d blocked in recv (src=%d tag=%d) on %s after %v: %w",
				self, src, tag, w.describeCtx(ctx), w.timeout, ErrTimeout)
		}
		if !blocked {
			blocked = true
			blockedAt = time.Now()
			p.waiting = true
			p.waitCtx, p.waitSrc, p.waitTag = ctx, src, tag
			if w.tracer != nil {
				w.tracer.Record(trace.Event{
					Kind: trace.KindRecvBlock, Rank: self, Ctx: ctx,
					Peer: src, Tag: tag,
				})
			}
		}
		p.cond.Wait()
	}
}
