package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
)

// serveMap POSTs body to h's /map under ctx and returns the status and the
// reply bytes.
func serveMap(ctx context.Context, h http.Handler, body []byte) (int, []byte) {
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if cl := w.Header().Get("Content-Length"); w.Code == http.StatusOK && cl != strconv.Itoa(w.Body.Len()) {
		return 0, []byte("Content-Length " + cl + " for " + strconv.Itoa(w.Body.Len()) + " bytes")
	}
	return w.Code, w.Body.Bytes()
}

// checkReply POSTs v to h's /map and requires a 200 whose bytes are
// json.Marshal of the decoded reply plus a newline. It returns the decoded
// reply.
func checkReply[T any](t *testing.T, ctx context.Context, h http.Handler, v any) *T {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	code, reply := serveMap(ctx, h, body)
	if code != http.StatusOK {
		t.Fatalf("POST /map = %d: %s", code, reply)
	}
	out := new(T)
	if err := json.Unmarshal(reply, out); err != nil {
		t.Fatalf("decode reply: %v\n%s", err, reply)
	}
	want, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(reply, want) {
		t.Fatalf("reply bytes differ from the encoder's\n got: %s\nwant: %s", reply, want)
	}
	return out
}

// checkBase requires that key's result-table entry is a sealed base response
// whose encoding is the encoder's, and, when s has a store, that the stored
// record is that encoding.
func checkBase(t *testing.T, s *Service, key string) {
	t.Helper()
	base, ok := s.results.Get(key)
	if !ok {
		t.Fatalf("key %.12s not kept", key)
	}
	want, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.body, want) {
		t.Fatalf("kept encoding differs from the encoder's\n got: %s\nwant: %s", base.body, want)
	}
	if s.store == nil {
		return
	}
	if rec, ok := s.store.Get(storeMappingPrefix + key); !ok || !bytes.Equal(rec, base.body) {
		t.Fatalf("stored record (found %v) is not the kept encoding\n got: %s\nwant: %s", ok, rec, base.body)
	}
}

func keyOf(t *testing.T, s *Service, req *Request) string {
	t.Helper()
	c, err := s.compile(req)
	if err != nil {
		t.Fatal(err)
	}
	return c.key
}

// TestReplyBytesMatchEncoding: every way a /map reply is made — computed, LRU
// hit, store hit after a restart, traced, degraded, explicit graph,
// forwarded single and sub-batch, batch — writes exactly json.Marshal of
// the reply plus a newline, and every kept entry's encoding is the record
// the store holds.
func TestReplyBytesMatchEncoding(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "store.log")
	st1 := openTestStore(t, path)
	s1 := New(Config{Workers: 2, CacheEntries: 64, Store: st1})
	h1 := s1.Handler()

	req := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "recursive-doubling"}, Sizes: []int{1024, 65536}}
	if r := checkReply[Response](t, ctx, h1, req); r.Cached || r.Degraded {
		t.Fatalf("computed reply: cached=%v degraded=%v", r.Cached, r.Degraded)
	}
	checkBase(t, s1, keyOf(t, s1, req))
	if r := checkReply[Response](t, ctx, h1, req); !r.Cached {
		t.Fatal("repeat reply missed the result table")
	}

	traced := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Trace: true}
	for i := 0; i < 2; i++ {
		if r := checkReply[Response](t, ctx, h1, traced); len(r.Trace) == 0 || r.Cached != (i == 1) {
			t.Fatalf("traced reply %d: %d events, cached=%v", i, len(r.Trace), r.Cached)
		}
	}
	checkBase(t, s1, keyOf(t, s1, traced))

	graph := &Request{Topology: smallTopo(), Pattern: PatternSpec{Graph: ringGraph(16)}}
	if r := checkReply[Response](t, ctx, h1, graph); r.GraphCost == nil {
		t.Fatal("graph reply carries no graph cost")
	}
	checkBase(t, s1, keyOf(t, s1, graph))

	spent, cancel := context.WithCancel(ctx)
	cancel()
	degraded := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "binomial-gather"}}
	if r := checkReply[Response](t, spent, h1, degraded); !r.Degraded {
		t.Fatal("reply under a spent budget not degraded")
	}

	batch := &BatchRequest{
		Topology: smallTopo(),
		Patterns: []BatchPattern{{Name: "ring"}, {Name: "recursive-doubling"}, {Name: "binomial-broadcast", Sizes: []int{4096}}},
		Sizes:    []int{1024, 65536},
	}
	if r := checkReply[BatchResponse](t, ctx, h1, batch); len(r.Responses) != 3 || !r.Responses[1].Cached || r.Responses[2].Cached {
		t.Fatalf("batch reply: %d items, want 3 with only the third computed", len(r.Responses))
	}

	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, path)
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2})
	defer s2.Close()
	h2 := s2.Handler()
	if r := checkReply[Response](t, ctx, h2, req); !r.Cached {
		t.Fatal("restarted reply was not a store hit")
	}
	checkBase(t, s2, keyOf(t, s2, req))
	if st := s2.Stats(); st.StoreHits != 1 || st.Computes != 0 {
		t.Fatalf("restarted service: %d store hits, %d computes; want 1, 0", st.StoreHits, st.Computes)
	}

	// Forwarded: a single and a sub-batch answered by peers of the front.
	f := newFleet(t, func(string) Config { return Config{Workers: 2, CacheEntries: 64} })
	front := f.svcs["a"]
	fb := &BatchRequest{Topology: smallTopo()}
	var single *Request
	for i := 0; i < 64 && (single == nil || len(fb.Patterns) < 4); i++ {
		r := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{512 * (i + 1)}}
		if _, _, remote := front.shardFor(keyOf(t, front, r)); !remote {
			continue
		}
		if single == nil {
			single = r
		} else {
			fb.Patterns = append(fb.Patterns, BatchPattern{Name: "ring", Sizes: r.Sizes})
		}
	}
	if single == nil || len(fb.Patterns) < 4 {
		t.Fatal("too few peer-owned requests in 64 tries")
	}
	if r := checkReply[Response](t, ctx, front.Handler(), single); r.Degraded || r.Shard == "" || r.Shard == "a" {
		t.Fatalf("forwarded reply: degraded=%v shard=%q", r.Degraded, r.Shard)
	}
	checkBase(t, front, keyOf(t, front, single))
	if r := checkReply[BatchResponse](t, ctx, front.Handler(), fb); len(r.Responses) != len(fb.Patterns) {
		t.Fatalf("forwarded batch: %d items for %d patterns", len(r.Responses), len(fb.Patterns))
	}
	for i := range fb.Patterns {
		checkBase(t, front, keyOf(t, front, fb.itemRequest(i)))
	}
	if front.Stats().Computes != 0 {
		t.Error("the front computed peer-owned keys itself")
	}
}

// TestOldOrderStoreRecordMisses: a store record in the field order of
// earlier releases, results before the per-request fields, does not end in
// the base suffix a reply is spliced onto. It counts as a store miss: the
// request computes, answers with the encoder's bytes, and the recompute
// overwrites the record with the current encoding.
func TestOldOrderStoreRecordMisses(t *testing.T) {
	ctx := context.Background()
	st := openTestStore(t, filepath.Join(t.TempDir(), "store.log"))
	defer st.Close()
	s := New(Config{Workers: 2, Store: st})
	defer s.Close()

	req := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "binomial-broadcast"}, Sizes: []int{2048}}
	key := keyOf(t, s, req)
	old, err := json.Marshal(struct {
		Mapping       []int        `json:"mapping"`
		Heuristic     string       `json:"heuristic"`
		Degraded      bool         `json:"degraded"`
		Cached        bool         `json:"cached"`
		Results       []SizeResult `json:"results"`
		ElapsedMicros int64        `json:"elapsed_us"`
	}{Mapping: core.Identity(16), Heuristic: "bbmh", Results: []SizeResult{{Bytes: 2048, DefaultSeconds: 1, ReorderedSeconds: 0.5, UseReordered: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(storeMappingPrefix+key, old); err != nil {
		t.Fatal(err)
	}

	if r := checkReply[Response](t, ctx, s.Handler(), req); r.Cached || r.Degraded {
		t.Fatalf("reply over an old-order record: cached=%v degraded=%v, want computed", r.Cached, r.Degraded)
	}
	if stats := s.Stats(); stats.StoreHits != 0 || stats.StoreMisses != 1 || stats.Computes != 1 {
		t.Fatalf("%d store hits, %d store misses, %d computes; want 0, 1, 1", stats.StoreHits, stats.StoreMisses, stats.Computes)
	}
	checkBase(t, s, key) // the record is now the kept encoding
}

// TestMapRejectsTrailingData: a /map body is one JSON value. A second value or
// garbage after it is a 400 on both shapes; trailing whitespace is not.
func TestMapRejectsTrailingData(t *testing.T) {
	s := newTestService(t)
	h := s.Handler()
	for _, shape := range []string{
		`{"topology":{"nodes":4,"sockets_per_node":2,"cores_per_socket":2},"pattern":{"name":"ring"}}`,
		`{"topology":{"nodes":4,"sockets_per_node":2,"cores_per_socket":2},"patterns":[{"name":"ring"}]}`,
	} {
		for _, tail := range []string{` {"x":1}`, ` garbage`, `}`, `{"pattern":{"name":"ring"}}`} {
			if code, reply := serveMap(context.Background(), h, []byte(shape+tail)); code != http.StatusBadRequest {
				t.Errorf("%s + %q: %d %s, want 400", shape, tail, code, reply)
			}
		}
		if code, reply := serveMap(context.Background(), h, []byte(shape+" \n\t\r\n")); code != http.StatusOK {
			t.Errorf("%s + whitespace: %d %s, want 200", shape, code, reply)
		}
	}
}

// FuzzParseRequest: a /map body of either shape decodes strictly, as
// handleMap decodes it, and compiles without a panic, and compiling the same
// request twice gives the same cache key. Nothing is served. A single body
// cannot carry "forwarded": only a batch body is a forward hop.
func FuzzParseRequest(f *testing.F) {
	topo := smallTopo()
	for _, v := range []any{
		&Request{Topology: topo, Pattern: PatternSpec{Name: "recursive-doubling"}, Sizes: []int{1024, 65536}},
		&Request{Topology: topo, Pattern: PatternSpec{Name: "ring"}, Trace: true},
		&Request{Topology: topo, Pattern: PatternSpec{Graph: ringGraph(16)}},
		&Request{Topology: TopologySpec{Preset: "gpc"}, Pattern: PatternSpec{Name: "ring"}, Heuristic: "rmh"},
		&BatchRequest{Topology: topo, Patterns: []BatchPattern{{Name: "ring"}, {Name: "recursive-doubling"}, {Name: "binomial-broadcast", Sizes: []int{4096}}}, Sizes: []int{1024, 65536}},
		&BatchRequest{Topology: topo, Patterns: []BatchPattern{{Name: "ring", Sizes: []int{512}}}, Forwarded: true},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	forwardedSingle := []byte(`{"topology":{"nodes":4,"sockets_per_node":2,"cores_per_socket":2},"pattern":{"name":"ring"},"forwarded":true}`)
	f.Add(forwardedSingle)
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	if code, reply := serveMap(context.Background(), s.Handler(), forwardedSingle); code != http.StatusBadRequest {
		f.Fatalf("a single body marked forwarded: %d %s, want 400", code, reply)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, breq, err := decodeMap(body)
		if err != nil {
			return
		}
		if breq == nil {
			if modest(&req.Topology) {
				sameKey(t, func() (*compiled, error) { return s.compile(req) })
			}
			return
		}
		if n := len(breq.Patterns); n == 0 || n > MaxBatchPatterns || !modest(&breq.Topology) {
			return
		}
		tc, err := s.contextFor(&breq.Topology, breq.Procs, breq.Layout)
		if err != nil {
			return
		}
		for i := range breq.Patterns {
			sameKey(t, func() (*compiled, error) { return compileWith(tc, breq.itemRequest(i)) })
		}
	})
}

// sameKey compiles one request twice and requires one verdict and one key.
func sameKey(t *testing.T, compile func() (*compiled, error)) {
	t.Helper()
	a, errA := compile()
	b, errB := compile()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("compiled once with error %v, again with %v", errA, errB)
	}
	if errA == nil && a.key != b.key {
		t.Fatalf("one request compiled to keys %s and %s", a.key, b.key)
	}
}

// modest bounds the clusters the fuzz target builds. No size limit guards a
// topology spec, so a hostile core count is a question of memory, which
// this target does not ask.
func modest(spec *TopologySpec) bool {
	n := spec.Network
	if n == nil {
		n = &NetworkSpec{}
	}
	if spec.Nodes > 64 {
		return false
	}
	for _, v := range []int{spec.SocketsPerNode, spec.CoresPerSocket, n.Leaves, n.NodesPerLeaf, n.Uplinks, n.X, n.Y, n.Z} {
		if v > 16 {
			return false
		}
	}
	return true
}

// TestCacheChargesEncoding: a kept entry is charged at least its encoding
// and its mapping, so CacheBytes bounds what the table holds.
func TestCacheChargesEncoding(t *testing.T) {
	s := newTestService(t)
	req := &Request{Topology: TopologySpec{Preset: "gpc"}, Pattern: PatternSpec{Name: "ring"}, Heuristic: "rmh"}
	if _, err := s.Compute(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	base, ok := s.results.Get(keyOf(t, s, req))
	if !ok {
		t.Fatal("GPC response not kept")
	}
	p := len(base.Mapping)
	if floor := int64(len(base.body) + 8*p); p != 4096 || s.results.Bytes() < floor || approxResponseBytes(base) < floor {
		t.Errorf("p=%d entry charged %d (table %d), want at least len(encoding) %d + 8p", p, approxResponseBytes(base), s.results.Bytes(), len(base.body))
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestWarmHitAllocsIndependentOfProcs: a warm /map hit allocates as many
// objects on GPC (p=4096) as on a 64-core cluster — the reply is the kept
// encoding plus a suffix, not a walk over the mapping.
func TestWarmHitAllocsIndependentOfProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := newTestService(t)
	h := s.Handler()
	allocs := func(topo TopologySpec, layout string) float64 {
		body, err := json.Marshal(Request{Topology: topo, Layout: layout, Pattern: PatternSpec{Name: "ring"}, Heuristic: "rmh"})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{h: http.Header{}}
		hit := func() {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body)))
		}
		hit() // computes
		if st := s.Stats(); st.OK != st.Requests {
			t.Fatalf("%+v: request failed", topo)
		}
		return testing.AllocsPerRun(50, hit)
	}
	// The 64-core request names the default layout so that both bodies
	// decode one string besides the pattern name, as GPC's names its preset.
	p64 := allocs(TopologySpec{Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4}, "block-bunch")
	gpc := allocs(TopologySpec{Preset: "gpc"}, "")
	if gpc > p64 {
		t.Errorf("warm hit: %.1f allocations on GPC, %.1f on 64 cores; want no more on GPC", gpc, p64)
	}
	if hits := s.Stats().CacheHits; hits < 100 {
		t.Errorf("%d cache hits, want every measured request a hit", hits)
	}
}
