package service

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// bodyOf is a response's wire form without the one per-request field.
func bodyOf(t *testing.T, resp *Response) string {
	t.Helper()
	r := *resp
	r.ElapsedMicros = 0
	blob, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestContextDeadlineIsolation: request A's budget is A's alone. On one
// service, A (GPC, 1 ms) starts first, and B (same topology context, other
// sizes, default budget) once A is building inside the context's memos, where
// B waits for A's build or leads the next one. A must degrade and leave
// nothing behind — not in the result cache, not in the store, not in the
// context; B must be
// healthy and byte-equal to B on a service that never saw A (a waiter handed
// A's expiry would answer HTTP 500 instead); and A asked again with a normal
// budget must be healthy. Each round races on fresh memos: a new layout, or a
// heuristic the layout's context has not run. Run under -race -count=10.
func TestContextDeadlineIsolation(t *testing.T) {
	st := openTestStore(t, filepath.Join(t.TempDir(), "mapd.store"))
	defer st.Close()
	s := New(Config{Workers: 4, CacheEntries: 64, Store: st})
	defer s.Close()
	ref := newTestService(t)
	ctx := context.Background()
	gpc := TopologySpec{Preset: "gpc"}

	round := 0
	for _, layout := range goldenLayouts {
		for _, heuristic := range []string{"rdmh", "bgmh"} {
			round++
			// The context, its oracle and its machine are built outside any
			// budget worth racing for; pay for them first.
			if _, err := s.Compute(ctx, &Request{
				Topology: gpc, Layout: layout, Pattern: PatternSpec{Name: "ring"}, Sizes: []int{8},
			}); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			reqA := &Request{
				Topology: gpc, Layout: layout, Heuristic: heuristic,
				Pattern: PatternSpec{Name: "recursive-doubling"}, Sizes: []int{4096 + round}, TimeoutMillis: 1,
			}
			reqB := &Request{
				Topology: gpc, Layout: layout, Heuristic: heuristic,
				Pattern: PatternSpec{Name: "recursive-doubling"}, Sizes: []int{512 + round, 8192 + round},
			}
			want, err := ref.Compute(ctx, reqB)
			if err != nil || want.Degraded || want.Cached {
				t.Fatalf("reference B: resp=%+v err=%v", want, err)
			}
			entries, records := s.cache.len(), st.Stats().Records
			c, err := s.compile(reqA)
			if err != nil {
				t.Fatal(err)
			}

			// B starts only once A is inside a build of the context (or has
			// answered): started together, B could finish every build before
			// A ran, and A would read them and answer healthy well inside its
			// 1 ms.
			var a, b *Response
			var errA, errB error
			aDone, bDone := make(chan struct{}), make(chan struct{})
			go func() { defer close(aDone); a, errA = s.Compute(ctx, reqA) }()
			for waiting := true; waiting && !building(c.tc); {
				select {
				case <-aDone:
					waiting = false
				default:
					runtime.Gosched()
				}
			}
			go func() { defer close(bDone); b, errB = s.Compute(ctx, reqB) }()
			<-aDone
			<-bDone

			if errA != nil || !a.Degraded || a.Cached {
				t.Fatalf("%s/%s: A: resp=%+v err=%v, want degraded", layout, heuristic, a, errA)
			}
			if errB != nil {
				t.Fatalf("%s/%s: B failed on A's budget: %v", layout, heuristic, errB)
			}
			if b.Degraded || b.Cached {
				t.Fatalf("%s/%s: B degraded=%v cached=%v under a default budget", layout, heuristic, b.Degraded, b.Cached)
			}
			if got, want := bodyOf(t, b), bodyOf(t, want); got != want {
				t.Errorf("%s/%s: B beside A differs from B alone:\n got %s\nwant %s", layout, heuristic, got, want)
			}
			if got := s.cache.len(); got != entries+1 {
				t.Errorf("%s/%s: result cache went from %d to %d entries, want B's alone", layout, heuristic, entries, got)
			}
			if got := st.Stats().Records; got != records+1 {
				t.Errorf("%s/%s: store went from %d to %d records, want B's alone", layout, heuristic, records, got)
			}

			again := *reqA
			again.TimeoutMillis = 0
			if resp, err := s.Compute(ctx, &again); err != nil || resp.Degraded || resp.Cached {
				t.Errorf("%s/%s: A with a normal budget: resp=%+v err=%v", layout, heuristic, resp, err)
			}
		}
	}
}

// building reports whether a build of one of tc's per-request memos is in
// flight.
func building(tc *topoContext) bool {
	return inFlight(&tc.heurMaps) || inFlight(&tc.scheds) || inFlight(&tc.baseProfs) || inFlight(&tc.reordered)
}

func inFlight[K comparable, V any](om *onceMap[K, V]) bool {
	om.mu.Lock()
	defer om.mu.Unlock()
	for _, s := range om.m {
		select {
		case <-s.done:
		default:
			return true
		}
	}
	return false
}

// TestOnceMapFailureIsTheBuildersAlone pins the primitive under the deadline
// contract: a waiter with budget left retries a failed build itself, a waiter
// without reports its own expiry without waiting, and a failure leaves no
// slot behind.
func TestOnceMapFailureIsTheBuildersAlone(t *testing.T) {
	var om onceMap[string, int]
	building, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := om.do(context.Background(), "k", func() (int, error) {
			builds.Add(1)
			close(building)
			<-release
			return 0, context.DeadlineExceeded
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("builder: err = %v, want its own failure", err)
		}
	}()
	<-building

	spent, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := om.do(spent, "k", func() (int, error) { t.Error("a spent waiter built"); return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("spent waiter: err = %v, want its own context's", err)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := om.do(context.Background(), "k", func() (int, error) { builds.Add(1); return 7, nil })
		if v != 7 || err != nil {
			t.Errorf("live waiter: (%d, %v), want its own retry's (7, nil)", v, err)
		}
	}()
	// The live waiter joins the slot (or arrives after the failure: either
	// way it must end up building).
	time.Sleep(time.Millisecond)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 2 {
		t.Errorf("%d builds, want the failed one and the waiter's retry", n)
	}
	if v, err := om.do(context.Background(), "k", func() (int, error) { t.Error("rebuilt a held value"); return 0, nil }); v != 7 || err != nil {
		t.Errorf("memoised value: (%d, %v), want (7, nil)", v, err)
	}
	if _, err := om.do(context.Background(), "bad", func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Error("a failed build reported success")
	}
	if len(om.m) != 1 {
		t.Errorf("map holds %d slots, want only the successful key", len(om.m))
	}
}

// TestContextBuiltOnce: 16 concurrent requests that differ only in sizes land
// on one topology context and build each of its parts once — one context, one
// oracle, one run of the heuristic, one schedule, one base profile — while
// every request is still its own computation. Run under -race -count=10.
func TestContextBuiltOnce(t *testing.T) {
	s := New(Config{Workers: 4, CacheEntries: 64})
	defer s.Close()
	runs := metrics.NewCounterVec("heuristic_mappings_total", "", "heuristic").With("heuristic", "rdmh")
	before := runs.Value()
	topo := fatTreeSpec(32, 4, 8, 4)

	const workers = 16
	oracles := make([]topology.Oracle, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := &Request{
				Topology: topo, Layout: "cyclic-bunch",
				Pattern: PatternSpec{Name: "recursive-doubling"}, Sizes: []int{1024 + g, 65536 + g},
			}
			resp, err := s.Compute(context.Background(), req)
			if err != nil || resp.Degraded || resp.Cached || len(resp.Results) != 2 {
				t.Errorf("worker %d: resp=%+v err=%v", g, resp, err)
				return
			}
			c, err := s.compile(req)
			if err != nil {
				t.Errorf("worker %d: compile: %v", g, err)
				return
			}
			if oracles[g], err = c.tc.oracleFor(context.Background()); err != nil {
				t.Errorf("worker %d: oracleFor: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if got := runs.Value() - before; got != 1 {
		t.Errorf("rdmh ran %d times for %d requests on one context, want once", got, workers)
	}
	st := s.Stats()
	// Each worker looked the context up twice: for its request and to inspect it.
	if st.ContextMisses != 1 || st.ContextHits != 2*workers-1 || st.Contexts != 1 {
		t.Errorf("context misses %d, hits %d, held %d; want 1, %d, 1", st.ContextMisses, st.ContextHits, st.Contexts, 2*workers-1)
	}
	if st.Computes != workers || st.CacheHits != 0 || st.FlightShared != 0 {
		t.Errorf("computes %d, cache hits %d, flight shared %d; want %d distinct computations", st.Computes, st.CacheHits, st.FlightShared, workers)
	}
	for g := 1; g < workers; g++ {
		if oracles[g] != oracles[0] {
			t.Fatalf("worker %d read a different oracle instance: it was built more than once", g)
		}
	}
	tc := s.contexts.order.Front().Value.(*topoContext)
	if o, h, sc, b := len(tc.oracle.m), len(tc.heurMaps.m), len(tc.scheds.m), len(tc.baseProfs.m); o != 1 || h != 1 || sc != 1 || b != 1 {
		t.Errorf("context holds %d oracles, %d mappings, %d schedules, %d base profiles; want one of each", o, h, sc, b)
	}
	if r := len(tc.reordered.m); r != 1 {
		t.Errorf("context holds %d order-preserved profiles for one (pattern, mode, mapping)", r)
	}
}

// TestContextTableBounded: the table never holds more than its bounds, a
// context that was evicted and rebuilt answers as before, and neither an
// invalid spec nor a context larger than the byte ceiling is ever retained.
func TestContextTableBounded(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 1})
	defer s.Close()
	ctx := context.Background()
	request := func(nodes int) *Request {
		return &Request{
			Topology: TopologySpec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: 2},
			Pattern:  PatternSpec{Name: "ring"}, Sizes: []int{4096},
		}
	}
	const extra = 8
	var first *Response
	for nodes := 2; nodes < 2+maxContexts+extra; nodes++ {
		resp, err := s.Compute(ctx, request(nodes))
		if err != nil || resp.Degraded || resp.Cached {
			t.Fatalf("nodes=%d: resp=%+v err=%v", nodes, resp, err)
		}
		if first == nil {
			first = resp
		}
		if held := s.contexts.order.Len(); held > maxContexts || held != len(s.contexts.slots.m) {
			t.Fatalf("nodes=%d: table holds %d contexts in %d slots, bound %d", nodes, held, len(s.contexts.slots.m), maxContexts)
		}
	}
	st := s.Stats()
	if st.Contexts != maxContexts || st.ContextEvictions != extra || st.ContextMisses != maxContexts+extra {
		t.Errorf("held %d, evictions %d, misses %d; want %d, %d, %d", st.Contexts, st.ContextEvictions, st.ContextMisses, maxContexts, extra, maxContexts+extra)
	}

	// The oldest context is gone; rebuilt, it answers as it did.
	again, err := s.Compute(ctx, request(2))
	if err != nil || again.Cached {
		t.Fatalf("rebuilt context: resp=%+v err=%v", again, err)
	}
	if got := s.Stats().ContextMisses; got != st.ContextMisses+1 {
		t.Errorf("context misses %d -> %d: the first context was still held", st.ContextMisses, got)
	}
	if got, want := bodyOf(t, again), bodyOf(t, first); got != want {
		t.Errorf("evicted-then-rebuilt context answers differently:\n got %s\nwant %s", got, want)
	}

	// Invalid specs fail compilation and occupy nothing.
	held := s.contexts.order.Len()
	for i, req := range []*Request{
		{Topology: TopologySpec{Preset: "nope"}, Pattern: PatternSpec{Name: "ring"}},
		{Topology: smallTopo(), Procs: 1000, Pattern: PatternSpec{Name: "ring"}},
		{Topology: smallTopo(), Layout: "diagonal", Pattern: PatternSpec{Name: "ring"}},
		{Topology: TopologySpec{Nodes: 4, SocketsPerNode: 1, CoresPerSocket: 1, Network: &NetworkSpec{Kind: "torus", X: 1, Y: 1, Z: 1}}, Pattern: PatternSpec{Name: "ring"}},
	} {
		if _, err := s.Compute(ctx, req); err == nil {
			t.Errorf("invalid spec %d accepted", i)
		}
	}
	if got := s.contexts.order.Len(); got != held || len(s.contexts.slots.m) != held {
		t.Errorf("invalid specs left the table at %d contexts in %d slots, was %d", got, len(s.contexts.slots.m), held)
	}

	// A context that outgrows the byte ceiling is built, used and dropped —
	// alone: the smaller contexts beside it stay.
	small := New(Config{Workers: 2, CacheEntries: 1})
	defer small.Close()
	small.contexts.maxBytes = 8 << 10
	if _, err := small.Compute(ctx, request(4)); err != nil {
		t.Fatal(err)
	}
	torus := &Request{Topology: goldenTopologies[4].spec, Pattern: PatternSpec{Name: "ring"}, Sizes: []int{4096}}
	for i := 0; i < 2; i++ { // a 64-rank dense oracle alone is 16 KiB
		torus.Sizes[0]++
		if resp, err := small.Compute(ctx, torus); err != nil || resp.Degraded || resp.Cached {
			t.Fatalf("over-ceiling context: resp=%+v err=%v", resp, err)
		}
		if held := small.contexts.order.Len(); held != 1 || len(small.contexts.slots.m) != 1 || small.contexts.bytes > small.contexts.maxBytes {
			t.Fatalf("after an over-ceiling context the table holds %d contexts, %d slots, %d bytes; want the small one alone", held, len(small.contexts.slots.m), small.contexts.bytes)
		}
	}
	if st := small.Stats(); st.ContextMisses != 3 || st.ContextEvictions != 2 {
		t.Errorf("misses %d, evictions %d; want the over-ceiling context built and dropped twice", st.ContextMisses, st.ContextEvictions)
	}
	if _, err := small.Compute(ctx, request(4)); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.ContextHits != 1 {
		t.Errorf("context hits %d: the small context did not survive the large one's passage", st.ContextHits)
	}
}
