package service

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memo"
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
			entries, records := kept(&s.results), st.Stats().Records
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
			if got := kept(&s.results); got != entries+1 {
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

func inFlight[K comparable, V any](t *memo.Table[K, V]) bool {
	_, n := t.Len()
	return n > 0
}

// kept is the number of entries t keeps.
func kept[K comparable, V any](t *memo.Table[K, V]) int {
	n, _ := t.Len()
	return n
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
	st := s.stats
	// Each worker looked the context up twice: for its request and to inspect it.
	if misses, hits, held := st.contextMisses.Value(), st.contextHits.Value(), st.contexts.Value(); misses != 1 || hits != 2*workers-1 || held != 1 {
		t.Errorf("context misses %d, hits %d, held %d; want 1, %d, 1", misses, hits, held, 2*workers-1)
	}
	if computes, hits, shared := st.computes.Value(), st.cacheHits.Value(), st.flightShared.Value(); computes != workers || hits != 0 || shared != 0 {
		t.Errorf("computes %d, cache hits %d, flight shared %d; want %d distinct computations", computes, hits, shared, workers)
	}
	for g := 1; g < workers; g++ {
		if oracles[g] != oracles[0] {
			t.Fatalf("worker %d read a different oracle instance: it was built more than once", g)
		}
	}
	tc, ok := s.contexts.Get(contextKey(&topo, 0, "cyclic-bunch"))
	if !ok {
		t.Fatal("the one context is not held")
	}
	if o, h, sc, b := kept(&tc.oracle), kept(&tc.heurMaps), kept(&tc.scheds), kept(&tc.baseProfs); o != 1 || h != 1 || sc != 1 || b != 1 {
		t.Errorf("context holds %d oracles, %d mappings, %d schedules, %d base profiles; want one of each", o, h, sc, b)
	}
	if r := kept(&tc.reordered); r != 1 {
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
		if held, slots := s.contexts.Len(); held > maxContexts || slots != 0 {
			t.Fatalf("nodes=%d: table holds %d contexts in %d slots, bound %d", nodes, held, held+slots, maxContexts)
		}
	}
	contexts, evictions, misses := s.stats.contexts.Value(), s.stats.contextEvictions.Value(), s.stats.contextMisses.Value()
	if contexts != maxContexts || evictions != extra || misses != maxContexts+extra {
		t.Errorf("held %d, evictions %d, misses %d; want %d, %d, %d", contexts, evictions, misses, maxContexts, extra, maxContexts+extra)
	}

	// The oldest context is gone; rebuilt, it answers as it did.
	again, err := s.Compute(ctx, request(2))
	if err != nil || again.Cached {
		t.Fatalf("rebuilt context: resp=%+v err=%v", again, err)
	}
	if got := s.stats.contextMisses.Value(); got != misses+1 {
		t.Errorf("context misses %d -> %d: the first context was still held", misses, got)
	}
	if got, want := bodyOf(t, again), bodyOf(t, first); got != want {
		t.Errorf("evicted-then-rebuilt context answers differently:\n got %s\nwant %s", got, want)
	}

	// Invalid specs fail compilation and occupy nothing.
	held := kept(&s.contexts)
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
	if got, slots := s.contexts.Len(); got != held || slots != 0 {
		t.Errorf("invalid specs left the table at %d contexts in %d slots, was %d", got, got+slots, held)
	}

	// A context that outgrows the byte ceiling is built, used and dropped —
	// alone: the smaller contexts beside it stay.
	small := New(Config{Workers: 2, CacheEntries: 1})
	defer small.Close()
	small.contexts.MaxBytes = 8 << 10
	if _, err := small.Compute(ctx, request(4)); err != nil {
		t.Fatal(err)
	}
	torus := &Request{Topology: goldenTopologies[4].spec, Pattern: PatternSpec{Name: "ring"}, Sizes: []int{4096}}
	for i := 0; i < 2; i++ { // a 64-node torus oracle's table alone is 16 KiB
		torus.Sizes[0]++
		if resp, err := small.Compute(ctx, torus); err != nil || resp.Degraded || resp.Cached {
			t.Fatalf("over-ceiling context: resp=%+v err=%v", resp, err)
		}
		if held, slots := small.contexts.Len(); held != 1 || slots != 0 || small.contexts.Bytes() > small.contexts.MaxBytes {
			t.Fatalf("after an over-ceiling context the table holds %d contexts, %d slots, %d bytes; want the small one alone", held, held+slots, small.contexts.Bytes())
		}
	}
	if misses, evictions := small.stats.contextMisses.Value(), small.stats.contextEvictions.Value(); misses != 3 || evictions != 2 {
		t.Errorf("misses %d, evictions %d; want the over-ceiling context built and dropped twice", misses, evictions)
	}
	if _, err := small.Compute(ctx, request(4)); err != nil {
		t.Fatal(err)
	}
	if hits := small.stats.contextHits.Value(); hits != 1 {
		t.Errorf("context hits %d: the small context did not survive the large one's passage", hits)
	}
}

// TestTopologySpecBounded: a spec above maxCores cores or network nodes, or
// whose products overflow, is a 400 from buildCluster, before any layout is
// built; a spec at the bound compiles.
func TestTopologySpecBounded(t *testing.T) {
	s := newTestService(t)
	h := s.Handler()
	reject := func(what, topology string) {
		t.Helper()
		body := []byte(`{"topology":` + topology + `,"pattern":{"name":"ring"}}`)
		code, reply := serveMap(context.Background(), h, body)
		if code != http.StatusBadRequest || !strings.Contains(string(reply), "at most 8192") {
			// The larger specs below would allocate their layout unbounded.
			t.Fatalf("%s: %d %s, want a 400 naming the bound", what, code, reply)
		}
	}
	reject("8193 cores", `{"nodes":8193,"sockets_per_node":1,"cores_per_socket":1}`)
	reject("a torus of 8193 nodes", `{"nodes":1,"sockets_per_node":1,"cores_per_socket":1,"network":{"kind":"torus","x":8193,"y":1,"z":1}}`)
	reject("a fat-tree of 8193 nodes", `{"nodes":1,"sockets_per_node":1,"cores_per_socket":1,"network":{"kind":"fattree","leaves":1,"nodes_per_leaf":8193,"uplinks":1}}`)
	reject("an overflowing core count", `{"nodes":4294967296,"sockets_per_node":4294967296,"cores_per_socket":1}`)
	reject("an overflowing torus", `{"nodes":1,"sockets_per_node":1,"cores_per_socket":1,"network":{"kind":"torus","x":4294967296,"y":4294967296,"z":1}}`)
	start := time.Now()
	reject("10⁹ cores", `{"nodes":1000000,"sockets_per_node":1000,"cores_per_socket":1}`)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("rejecting 10⁹ cores took %v", took)
	}
	if kept, building := s.contexts.Len(); kept+building != 0 {
		t.Fatalf("rejected specs left %d contexts", kept+building)
	}
	at := &Request{Topology: TopologySpec{Nodes: 8, SocketsPerNode: 1, CoresPerSocket: 1, Network: &NetworkSpec{Kind: "torus", X: 8, Y: 32, Z: 32}}, Pattern: PatternSpec{Name: "ring"}}
	if _, err := s.compile(at); err != nil {
		t.Errorf("a torus of exactly %d nodes: %v", maxCores, err)
	}
	if _, err := buildCluster(&TopologySpec{Nodes: 1024, SocketsPerNode: 2, CoresPerSocket: 4}); err != nil {
		t.Errorf("a cluster of exactly %d cores: %v", maxCores, err)
	}
}

// TestNewClusterWithinBudget: a request naming a cluster the service does not
// hold answers within its budget, degraded or not: building its context no
// longer routes every node pair before the budget starts (155 ms here). The
// torus oracle's node table is built to completion once started; the race
// detector slows that build about fivefold, and the limit with it.
func TestNewClusterWithinBudget(t *testing.T) {
	limit := 100 * time.Millisecond
	if raceEnabled {
		limit *= 5
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	req := &Request{
		Topology:      TopologySpec{Nodes: 512, SocketsPerNode: 1, CoresPerSocket: 1, Network: &NetworkSpec{Kind: "torus", X: 8, Y: 8, Z: 8}},
		Pattern:       PatternSpec{Name: "ring"},
		TimeoutMillis: 20,
	}
	start := time.Now()
	resp, err := s.Compute(context.Background(), req)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took > limit {
		t.Errorf("a new 8×8×8 torus with a 20 ms budget answered after %v (degraded=%v), want under %v", took, resp.Degraded, limit)
	}
}
