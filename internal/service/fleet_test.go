package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/synth"
)

func openTestStore(t testing.TB, path string) *store.Store {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestBatchMatchesSequential: a batch answer must be indistinguishable from
// N sequential answers — same mappings, heuristics and modelled results.
func TestBatchMatchesSequential(t *testing.T) {
	breq := &BatchRequest{
		Topology: smallTopo(),
		Patterns: []BatchPattern{
			{Name: "ring"},
			{Name: "recursive-doubling"},
			{Name: "binomial-broadcast", Heuristic: "auto"},
			{Name: "binomial-gather", Sizes: []int{4096}},
		},
		Sizes: []int{1024, 65536},
	}

	seq := newTestService(t)
	want := make([]*Response, len(breq.Patterns))
	for i := range breq.Patterns {
		var err error
		want[i], err = seq.Compute(context.Background(), breq.itemRequest(i))
		if err != nil {
			t.Fatalf("sequential Compute %d: %v", i, err)
		}
	}

	// The amortisation a batch exists for, as counts rather than a wall-clock
	// ratio: the four items share one topology context, so each oracle
	// heuristic runs once for the whole batch (as it did on the sequential
	// service above, whose four requests found the context the first one
	// left in the table).
	mappings := metrics.NewCounterVec("heuristic_mappings_total", "", "heuristic")
	runs := func() map[string]uint64 {
		out := make(map[string]uint64, len(autoCandidates))
		for _, h := range autoCandidates {
			out[h] = mappings.With("heuristic", h).Value()
		}
		return out
	}
	before := runs()
	bat := newTestService(t)
	got, err := bat.ComputeBatch(context.Background(), breq)
	if err != nil {
		t.Fatalf("ComputeBatch: %v", err)
	}
	for h, n := range runs() {
		if n-before[h] != 1 {
			t.Errorf("a %d-pattern batch ran %s %d times, want once on the shared context", len(breq.Patterns), h, n-before[h])
		}
	}
	if len(got.Responses) != len(breq.Patterns) {
		t.Fatalf("got %d responses, want %d", len(got.Responses), len(breq.Patterns))
	}
	for i, resp := range got.Responses {
		if resp.Degraded {
			t.Fatalf("responses[%d] degraded", i)
		}
		if resp.Heuristic != want[i].Heuristic {
			t.Errorf("responses[%d].Heuristic = %q, want %q", i, resp.Heuristic, want[i].Heuristic)
		}
		if len(resp.Mapping) != len(want[i].Mapping) {
			t.Fatalf("responses[%d] mapping length %d, want %d", i, len(resp.Mapping), len(want[i].Mapping))
		}
		for j := range resp.Mapping {
			if resp.Mapping[j] != want[i].Mapping[j] {
				t.Fatalf("responses[%d].Mapping[%d] = %d, want %d", i, j, resp.Mapping[j], want[i].Mapping[j])
			}
		}
		if len(resp.Results) != len(want[i].Results) {
			t.Fatalf("responses[%d] has %d size results, want %d", i, len(resp.Results), len(want[i].Results))
		}
		for j := range resp.Results {
			if resp.Results[j] != want[i].Results[j] {
				t.Errorf("responses[%d].Results[%d] = %+v, want %+v", i, j, resp.Results[j], want[i].Results[j])
			}
		}
	}

	if n := bat.stats.batches.Value(); n != 1 {
		t.Errorf("batches = %d, want 1", n)
	}
	if n := bat.stats.requests.Value(); n != uint64(len(breq.Patterns)) {
		t.Errorf("requests = %d, want %d (one per pattern)", n, len(breq.Patterns))
	}

	// A repeat of the same batch is answered entirely from cache.
	computes := bat.stats.computes.Value()
	again, err := bat.ComputeBatch(context.Background(), breq)
	if err != nil {
		t.Fatalf("repeat ComputeBatch: %v", err)
	}
	for i, resp := range again.Responses {
		if !resp.Cached {
			t.Errorf("repeat responses[%d] not served from cache", i)
		}
	}
	if got := bat.stats.computes.Value(); got != computes {
		t.Errorf("repeat batch recomputed: computes %d -> %d", computes, got)
	}
}

func TestBatchRejectsBadPattern(t *testing.T) {
	s := newTestService(t)
	_, err := s.ComputeBatch(context.Background(), &BatchRequest{
		Topology: smallTopo(),
		Patterns: []BatchPattern{{Name: "ring"}, {Name: "no-such-pattern"}},
	})
	if err == nil {
		t.Fatal("batch with an invalid pattern did not fail")
	}
	if _, err := s.ComputeBatch(context.Background(), &BatchRequest{Topology: smallTopo()}); err == nil {
		t.Fatal("empty batch did not fail")
	}
}

// TestWarmStoreRestart: a response computed before a restart must be served
// from the persistent store afterwards, with zero recomputation.
func TestWarmStoreRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	req := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}}

	st1 := openTestStore(t, path)
	s1 := New(Config{Workers: 2, Store: st1})
	first, err := s1.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("Compute before restart: %v", err)
	}
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openTestStore(t, path)
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2})
	defer s2.Close()
	second, err := s2.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("Compute after restart: %v", err)
	}
	if !second.Cached {
		t.Error("restarted service did not serve the stored response as a hit")
	}
	for i := range first.Mapping {
		if first.Mapping[i] != second.Mapping[i] {
			t.Fatalf("stored mapping differs at %d", i)
		}
	}
	if n := s2.stats.computes.Value(); n != 0 {
		t.Errorf("restarted service recomputed: computes = %d, want 0", n)
	}
	if n := s2.stats.storeHits.Value(); n != 1 {
		t.Errorf("store hits = %d, want 1", n)
	}
}

// forwards is the number of hops s sent to a peer, answered or failed: the
// two outcomes of mapd_forwards_total.
func forwards(s *Service) uint64 {
	return s.stats.forwardsOK.Value() + s.stats.forwardsErr.Value()
}

// fleet is a 3-replica in-process mapd cluster over httptest servers.
type fleet struct {
	names []string
	svcs  map[string]*Service
	srvs  map[string]*httptest.Server
}

func newFleet(t *testing.T, mkConfig func(name string) Config) *fleet {
	t.Helper()
	f := &fleet{
		names: []string{"a", "b", "c"},
		svcs:  make(map[string]*Service),
		srvs:  make(map[string]*httptest.Server),
	}
	for _, name := range f.names {
		cfg := mkConfig(name)
		cfg.Shard = &ShardConfig{Self: name}
		svc := New(cfg)
		f.svcs[name] = svc
		f.srvs[name] = httptest.NewServer(svc.Handler())
	}
	for _, name := range f.names {
		if err := f.svcs[name].SetPeers(f.peersOf(name)); err != nil {
			t.Fatalf("SetPeers(%s): %v", name, err)
		}
	}
	t.Cleanup(func() {
		for _, name := range f.names {
			f.srvs[name].Close()
			f.svcs[name].Close()
		}
	})
	return f
}

func (f *fleet) peersOf(self string) map[string]string {
	peers := make(map[string]string)
	for _, name := range f.names {
		if name != self {
			peers[name] = f.srvs[name].URL
		}
	}
	return peers
}

// TestFleetComputesOncePerFingerprint: across a 3-replica fleet, each
// distinct request fingerprint is computed exactly once cluster-wide — the
// ring routes every key to one owner, single-flight and the caches do the
// rest.
func TestFleetComputesOncePerFingerprint(t *testing.T) {
	f := newFleet(t, func(string) Config { return Config{Workers: 2, CacheEntries: 64} })
	front := f.svcs["a"]

	const distinct = 9
	reqs := make([]*Request, distinct)
	for i := range reqs {
		reqs[i] = &Request{
			Topology: smallTopo(),
			Pattern:  PatternSpec{Name: "ring"},
			Sizes:    []int{1024 * (i + 1)},
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, req := range reqs {
			resp, err := front.Compute(context.Background(), req)
			if err != nil {
				t.Fatalf("pass %d req %d: %v", pass, i, err)
			}
			if resp.Degraded {
				t.Fatalf("pass %d req %d degraded", pass, i)
			}
			checkPermutation(t, resp.Mapping, 16)
		}
	}

	var computes uint64
	for _, name := range f.names {
		computes += f.svcs[name].stats.computes.Value()
	}
	if computes != distinct {
		t.Errorf("cluster-wide computes = %d, want %d (one per fingerprint)", computes, distinct)
	}
	if fw := forwards(front); fw == 0 {
		t.Error("no requests were forwarded; ring routed everything to the front replica")
	}
	// Each computing replica persisted only its own keyspace slice, and every
	// response names the replica that computed it.
	for i, req := range reqs {
		c, err := front.compile(req)
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		owner, _, _ := front.shardFor(c.key)
		if owner == "" {
			t.Fatalf("request %d has no ring owner", i)
		}
		if _, ok := f.svcs[owner].storeGet(c.key); f.svcs[owner].store != nil && !ok {
			t.Errorf("request %d not persisted on its owner %s", i, owner)
		}
	}
}

// TestFleetPeerDownDegrades: when a key's owner is unreachable, the serving
// replica answers with the identity mapping instead of an error.
func TestFleetPeerDownDegrades(t *testing.T) {
	f := newFleet(t, func(string) Config { return Config{Workers: 2, CacheEntries: 64} })
	front := f.svcs["a"]

	// Find a fresh request owned by a peer, then take that peer down.
	var victimReq *Request
	var victimOwner string
	for i := 0; i < 64 && victimReq == nil; i++ {
		req := &Request{
			Topology: smallTopo(),
			Pattern:  PatternSpec{Name: "recursive-doubling"},
			Sizes:    []int{2048 * (i + 1)},
		}
		c, err := front.compile(req)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if owner, _, remote := front.shardFor(c.key); remote {
			victimReq, victimOwner = req, owner
		}
	}
	if victimReq == nil {
		t.Fatal("no peer-owned request found in 64 tries")
	}
	f.srvs[victimOwner].Close()

	resp, err := front.Compute(context.Background(), victimReq)
	if err != nil {
		t.Fatalf("Compute with dead owner: %v", err)
	}
	if !resp.Degraded {
		t.Error("dead owner did not degrade to the identity mapping")
	}
	for i, v := range resp.Mapping {
		if v != i {
			t.Fatalf("degraded mapping is not the identity at %d", i)
		}
	}
}

// TestFleetStoresPersistPerOwner: with per-replica stores, each replica
// appends only the keys it owns and computed.
func TestFleetStoresPersistPerOwner(t *testing.T) {
	dir := t.TempDir()
	f := newFleet(t, func(name string) Config {
		return Config{Workers: 2, Store: openTestStore(t, filepath.Join(dir, name+".log"))}
	})
	front := f.svcs["b"]
	for i := 0; i < 6; i++ {
		req := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "binomial-gather"}, Sizes: []int{512 * (i + 1)}}
		if _, err := front.Compute(context.Background(), req); err != nil {
			t.Fatalf("Compute %d: %v", i, err)
		}
		c, err := front.compile(req)
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		owner, _, _ := front.shardFor(c.key)
		for _, name := range f.names {
			_, ok := f.svcs[name].storeGet(c.key)
			if want := name == owner; ok != want {
				t.Errorf("request %d: replica %s stored=%v, want %v (owner %s)", i, name, ok, want, owner)
			}
		}
	}
}

// peerOwned returns n requests for pattern on smallTopo, distinct by size,
// whose keys s forwards to a peer.
func peerOwned(t *testing.T, s *Service, pattern string, n int) []*Request {
	t.Helper()
	var out []*Request
	for i := 0; i < 64 && len(out) < n; i++ {
		r := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: pattern}, Sizes: []int{256 * (i + 1)}}
		if _, _, remote := s.shardFor(keyOf(t, s, r)); remote {
			out = append(out, r)
		}
	}
	if len(out) < n {
		t.Fatalf("%d peer-owned requests in 64 tries, want %d", len(out), n)
	}
	return out
}

// marked reports whether r's trace carries the named mark.
func marked(r *Response, name string) bool {
	for _, e := range r.Trace {
		if e.Name == name {
			return true
		}
	}
	return false
}

// TestSlowPeerDegradesWithinBudget: the forward hop has no timeout of its
// own, so the request's budget must bound it, and a hop that fails degrades
// every item it carried. Each row fails the hop one way: a peer stalling 2 s
// past a 200 ms budget, a peer that reads the body and hangs up, a caller
// whose budget is spent before the hop starts, a peer that answers 200 with
// fewer responses than patterns. In each, a single request (a batch of one
// on the wire) and a 3-pattern sub-batch answer degraded in about the
// budget, nothing is kept in the result table or the store, and once the
// peer recovers a repeat is forwarded again.
func TestSlowPeerDegradesWithinBudget(t *testing.T) {
	spent, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range []struct {
		name string
		ctx  context.Context  // the caller's context while the hop fails
		fail http.HandlerFunc // the peer until it recovers; nil: healthy
	}{
		{"stalled", context.Background(), func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) // a drained body lets the server see the caller hang up
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
			}
			http.Error(w, "stalled", http.StatusServiceUnavailable)
		}},
		{"hangs-up", context.Background(), func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
				conn.Close()
			}
		}},
		{"budget-spent", spent, nil},
		{"short-reply", context.Background(), func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"responses":[],"elapsed_us":0}`+"\n")
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			peer := New(Config{Workers: 2})
			defer peer.Close()
			var failing atomic.Bool
			failing.Store(row.fail != nil)
			peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if failing.Load() {
					row.fail(w, r)
					return
				}
				peer.Handler().ServeHTTP(w, r)
			}))
			defer peerSrv.Close()

			st := openTestStore(t, filepath.Join(t.TempDir(), "store.log"))
			defer st.Close()
			front := New(Config{Workers: 2, Store: st, Shard: &ShardConfig{Self: "front", Peers: map[string]string{"peer": peerSrv.URL}}})
			defer front.Close()

			reqs := peerOwned(t, front, "ring", 4)
			single := reqs[0]
			single.TimeoutMillis = 200
			batch := &BatchRequest{Topology: smallTopo(), TimeoutMillis: 200}
			for _, r := range reqs[1:] {
				batch.Patterns = append(batch.Patterns, BatchPattern{Name: "ring", Sizes: r.Sizes})
			}
			keys := []string{keyOf(t, front, single)}
			for i := range batch.Patterns {
				keys = append(keys, keyOf(t, front, batch.itemRequest(i)))
			}
			// withinBudget runs one call against the failing hop and requires
			// that it returns well before a stall would end.
			withinBudget := func(what string, call func()) {
				t.Helper()
				start := time.Now()
				call()
				if took := time.Since(start); took > time.Second {
					t.Errorf("%s took %v, want about its 200 ms budget", what, took)
				}
			}

			withinBudget("single request", func() {
				resp, err := front.Compute(row.ctx, single)
				if err != nil || !resp.Degraded {
					t.Fatalf("single request: resp=%+v err=%v, want degraded", resp, err)
				}
			})
			withinBudget("sub-batch", func() {
				got, err := front.ComputeBatch(row.ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				for i, resp := range got.Responses {
					if !resp.Degraded {
						t.Fatalf("batch item %d not degraded", i)
					}
				}
			})
			for _, key := range keys {
				if _, ok := front.results.Get(key); ok {
					t.Errorf("degraded answer for %.12s kept in the result table", key)
				}
				if _, ok := st.Get(storeMappingPrefix + key); ok {
					t.Errorf("degraded answer for %.12s persisted", key)
				}
			}

			// The budget is not part of the key; the repeats take the default
			// one so that a slow cold compute on the peer cannot degrade them.
			failing.Store(false)
			single.TimeoutMillis, batch.TimeoutMillis = 0, 0
			ctx := context.Background()
			before := forwards(front)
			if resp, err := front.Compute(ctx, single); err != nil || resp.Degraded || resp.Cached {
				t.Fatalf("single repeat after recovery: resp=%+v err=%v, want a fresh forwarded answer", resp, err)
			}
			got, err := front.ComputeBatch(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, resp := range got.Responses {
				if resp.Degraded || resp.Cached {
					t.Fatalf("batch item %d after recovery: degraded=%v cached=%v, want a fresh forwarded answer", i, resp.Degraded, resp.Cached)
				}
			}
			if n := forwards(front) - before; n != 2 {
				t.Errorf("%d forwards after recovery, want 2 (the single request and the sub-batch)", n)
			}
			if front.stats.computes.Value() != 0 {
				t.Error("the front computed peer-owned keys itself")
			}
		})
	}
}

// TestForwardSharesOneFlight: single flight holds across the hop. A traced
// single request leads a peer-owned key's flight and marks its forward; a
// batch naming the same pattern three times, sent while that hop is at the
// peer, joins the flight three times. The peer receives the pattern once, in
// one hop. Against a closed peer a traced single marks the failed hop.
func TestForwardSharesOneFlight(t *testing.T) {
	peer := New(Config{Workers: 2})
	defer peer.Close()
	var hops, patterns atomic.Int64
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var hop BatchRequest
		if err != nil || json.Unmarshal(body, &hop) != nil || hop.Forwarded != modelEpoch {
			http.Error(w, "not a forwarded batch", http.StatusBadRequest)
			return
		}
		hops.Add(1)
		patterns.Add(int64(len(hop.Patterns)))
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-release
		r.Body = io.NopCloser(bytes.NewReader(body))
		peer.Handler().ServeHTTP(w, r)
	}))
	defer peerSrv.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	front := New(Config{Workers: 2, Shard: &ShardConfig{Self: "front", Peers: map[string]string{"peer": peerSrv.URL}}})
	defer front.Close()

	reqs := peerOwned(t, front, "ring", 2)
	single := reqs[0]
	single.Trace = true
	batch := &BatchRequest{Topology: smallTopo()}
	for i := 0; i < 3; i++ {
		batch.Patterns = append(batch.Patterns, BatchPattern{Name: "ring", Sizes: single.Sizes})
	}
	ctx := context.Background()
	var traced *Response
	var got *BatchResponse
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var err error
		if traced, err = front.Compute(ctx, single); err != nil {
			t.Error(err)
		}
	}()
	<-arrived // the single's hop is at the peer, its flight open
	go func() {
		defer wg.Done()
		var err error
		if got, err = front.ComputeBatch(ctx, batch); err != nil {
			t.Error(err)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); front.stats.flightShared.Value() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the batch's items joined the flight %d times, want 3", front.stats.flightShared.Value())
		}
	}
	unblock()
	wg.Wait()
	if t.Failed() {
		return
	}
	if n, p := hops.Load(), patterns.Load(); n != 1 || p != 1 {
		t.Errorf("the peer received %d hops carrying %d patterns, want the pattern once", n, p)
	}
	if fw, shared := forwards(front), front.stats.flightShared.Value(); fw != 1 || shared != 3 {
		t.Errorf("forwards %d, flight shared %d; want 1 and 3", fw, shared)
	}
	if traced.Degraded || !marked(traced, "forward:peer") {
		t.Errorf("traced single: degraded=%v trace=%+v, want a forward:peer mark", traced.Degraded, traced.Trace)
	}
	for i, resp := range got.Responses {
		if resp.Degraded || !slices.Equal(resp.Mapping, traced.Mapping) {
			t.Errorf("batch item %d: degraded=%v, mapping differs from the leader's", i, resp.Degraded)
		}
	}

	peerSrv.Close()
	failed := reqs[1]
	failed.Trace = true
	resp, err := front.Compute(ctx, failed)
	if err != nil || !resp.Degraded {
		t.Fatalf("against a closed peer: resp=%+v err=%v, want degraded", resp, err)
	}
	for _, name := range []string{"forward:peer", "forward-failed"} {
		if !marked(resp, name) {
			t.Errorf("against a closed peer the trace lacks %q: %+v", name, resp.Trace)
		}
	}
}

// TestForwardHopsAreNotBatches: every forward hop is a batch on the wire, so
// the batch counters count only bodies a client sent; the sender counts the
// hop in mapd_forwards_total. After forwarded singles and a forwarded
// sub-batch, the front has counted its one batch and the peers none.
func TestForwardHopsAreNotBatches(t *testing.T) {
	f := newFleet(t, func(string) Config { return Config{Workers: 2, CacheEntries: 64} })
	front := f.svcs["a"]
	ctx := context.Background()
	reqs := peerOwned(t, front, "binomial-broadcast", 5)
	for i, r := range reqs[:2] {
		if resp, err := front.Compute(ctx, r); err != nil || resp.Degraded {
			t.Fatalf("single %d: resp=%+v err=%v", i, resp, err)
		}
	}
	batch := &BatchRequest{Topology: smallTopo()}
	for _, r := range reqs[2:] {
		batch.Patterns = append(batch.Patterns, BatchPattern{Name: "binomial-broadcast", Sizes: r.Sizes})
	}
	if _, err := front.ComputeBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if batches, fw := front.stats.batches.Value(), forwards(front); batches != 1 || fw < 3 {
		t.Errorf("front: %d batches, %d forwards; want 1 batch and a hop per single plus one per owner of the batch", batches, fw)
	}
	var served uint64
	for _, name := range []string{"b", "c"} {
		peer := f.svcs[name].stats
		served += peer.requests.Value()
		if n := peer.batches.Value(); n != 0 {
			t.Errorf("peer %s counted %d batches for forward hops, want 0", name, n)
		}
	}
	if served != 5 {
		t.Errorf("the peers served %d forwarded items, want 5", served)
	}
}

func TestShedOnPressure(t *testing.T) {
	s := New(Config{Workers: 1, ShedOnPressure: true})
	defer s.Close()
	s.stats.queueDepth.Set(2) // saturate the admission threshold, 2x Workers
	resp, err := s.Compute(context.Background(), &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !resp.Degraded {
		t.Error("admission control did not shed to the identity mapping")
	}
	if got := s.stats.shed.Value(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
	s.stats.queueDepth.Set(0)
	resp, err = s.Compute(context.Background(), &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}})
	if err != nil {
		t.Fatalf("Compute after pressure: %v", err)
	}
	if resp.Degraded {
		t.Error("request degraded after pressure cleared")
	}
}

// TestCacheBytesBound: the byte budget evicts independently of the entry
// bound and keeps the newest entry when it fits; a response larger than the
// whole budget is served but not kept, and flushes nothing on its way.
func TestCacheBytesBound(t *testing.T) {
	ctx := context.Background()
	ring := func(topo TopologySpec, size int) *Request {
		return &Request{Topology: topo, Pattern: PatternSpec{Name: "ring"}, Sizes: []int{size}}
	}
	probe := newTestService(t)
	one, err := probe.Compute(ctx, ring(smallTopo(), 1024))
	if err != nil {
		t.Fatal(err)
	}
	budget := approxResponseBytes(one) * 3 / 2 // one 16-rank response, not two
	s := New(Config{Workers: 2, CacheEntries: 64, CacheBytes: budget})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Compute(ctx, ring(smallTopo(), 1024*(i+1))); err != nil {
			t.Fatalf("Compute %d: %v", i, err)
		}
	}
	if n := s.stats.cacheEntries.Value(); n != 1 {
		t.Errorf("cache entries = %d, want 1 (byte budget keeps only the newest)", n)
	}
	cacheBytes := s.stats.cacheBytes.Value()
	if cacheBytes <= 0 || cacheBytes > budget {
		t.Errorf("cache bytes = %d, want within (0, %d]", cacheBytes, budget)
	}
	newest := ring(smallTopo(), 4096)
	if resp, err := s.Compute(ctx, newest); err != nil || !resp.Cached {
		t.Errorf("newest entry: resp=%+v err=%v, want a cache hit", resp, err)
	}

	big := ring(TopologySpec{Nodes: 16, SocketsPerNode: 2, CoresPerSocket: 2}, 4096) // 64 ranks
	for i := 0; i < 2; i++ {
		if resp, err := s.Compute(ctx, big); err != nil || resp.Degraded || resp.Cached {
			t.Fatalf("oversized response, call %d: resp=%+v err=%v, want served and never kept", i, resp, err)
		}
	}
	if entries, bytes := s.stats.cacheEntries.Value(), s.stats.cacheBytes.Value(); entries != 1 || bytes != cacheBytes {
		t.Errorf("after an oversized response: %d entries, %d bytes; want %d, %d", entries, bytes, 1, cacheBytes)
	}
	if resp, err := s.Compute(ctx, newest); err != nil || !resp.Cached {
		t.Errorf("the oversized response flushed the newest entry: resp=%+v err=%v", resp, err)
	}
}

// TestStoreWithSynthRecords: a store that holds synth/<fp> records, as
// earlier mapd versions wrote them, opens and serves /map as any other: the
// records are never read, and their gauge is gone from /metrics.
func TestStoreWithSynthRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	table := &synth.Table{Topology: "00000000cafe0001"}
	table.Put(synth.Entry{
		Family: "broadcast", P: 16, SizeBucket: 10, PayloadBytes: 1024,
		Recipe: synth.Recipe{Alg: "binomial-broadcast"},
		Name:   "bcast-test", Schedule: "deadbeef",
	})
	record, err := table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, path)
	if err := st.Put("synth/"+table.Topology, record); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(&Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}})
	post := func(h http.Handler) Response {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body)))
		var resp Response
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Degraded {
			t.Fatalf("POST /map = %d %s", rec.Code, rec.Body)
		}
		return resp
	}
	for restart := 0; restart < 2; restart++ {
		st := openTestStore(t, path)
		s := New(Config{Workers: 2, Store: st})
		h := s.Handler()
		if resp := post(h); resp.Cached != (restart == 1) {
			t.Errorf("run %d: cached = %v, want %v", restart, resp.Cached, restart == 1)
		}
		computes, storeHits := s.stats.computes.Value(), s.stats.storeHits.Value()
		if want := uint64(1 - restart); computes != want || storeHits != uint64(restart) {
			t.Errorf("run %d: %d computes, %d store hits; want %d, %d", restart, computes, storeHits, want, restart)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if strings.Contains(rec.Body.String(), "mapd_synth_tables") {
			t.Errorf("run %d: /metrics exposes mapd_synth_tables", restart)
		}
		s.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHTTPBatch: the /map endpoint recognises the batch shape and still
// strict-decodes both shapes.
func TestHTTPBatch(t *testing.T) {
	s := newTestService(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	breq := BatchRequest{
		Topology: smallTopo(),
		Patterns: []BatchPattern{{Name: "ring"}, {Name: "recursive-doubling"}},
		Sizes:    []int{1024},
	}
	body, _ := json.Marshal(breq)
	resp, err := http.Post(srv.URL+"/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	var got BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST batch = %d, want 200", resp.StatusCode)
	}
	if len(got.Responses) != 2 {
		t.Fatalf("got %d responses, want 2", len(got.Responses))
	}
	for i, r := range got.Responses {
		if r.Degraded {
			t.Errorf("responses[%d] degraded", i)
		}
		checkPermutation(t, r.Mapping, 16)
	}

	bad, err := http.Post(srv.URL+"/map", "application/json",
		bytes.NewReader([]byte(`{"patterns": [{"name": "ring"}], "bogus_field": 1}`)))
	if err != nil {
		t.Fatalf("POST bad batch: %v", err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("batch with unknown field = %d, want 400", bad.StatusCode)
	}
}

// TestBatchAdmittedAsOne: under -shed a batch is admitted or shed once,
// before it fans out. A 16-pattern batch on one worker queues 15 of its own
// items — far past the threshold of 2 — and used to shed most of them to the
// identity mapping; now none degrade. A batch that arrives with the queue
// already at the threshold still sheds, as a whole.
func TestBatchAdmittedAsOne(t *testing.T) {
	s := New(Config{Workers: 1, ShedOnPressure: true})
	defer s.Close()
	batch := func(firstSize int) *BatchRequest {
		b := &BatchRequest{Topology: smallTopo()}
		for i := 0; i < 16; i++ {
			b.Patterns = append(b.Patterns, BatchPattern{Name: "ring", Sizes: []int{firstSize + i}})
		}
		return b
	}
	degraded := func(r *BatchResponse) (n int) {
		for _, resp := range r.Responses {
			if resp.Degraded {
				n++
			}
		}
		return n
	}

	got, err := s.ComputeBatch(context.Background(), batch(1024))
	if err != nil {
		t.Fatal(err)
	}
	if n := degraded(got); n != 0 || s.stats.shed.Value() != 0 {
		t.Errorf("idle service: %d of 16 batch items degraded, shed = %d; want 0 and 0", n, s.stats.shed.Value())
	}

	s.stats.queueDepth.Set(int64(s.maxQueue())) // someone else's backlog
	got, err = s.ComputeBatch(context.Background(), batch(4096))
	s.stats.queueDepth.Set(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := degraded(got); n != 16 || s.stats.shed.Value() != 16 {
		t.Errorf("saturated service: %d of 16 batch items degraded, shed = %d; want 16 and 16", n, s.stats.shed.Value())
	}
}
