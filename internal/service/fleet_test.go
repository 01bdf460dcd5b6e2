package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

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

	st := bat.Stats()
	if st.Batches != 1 {
		t.Errorf("batches = %d, want 1", st.Batches)
	}
	if st.Requests != uint64(len(breq.Patterns)) {
		t.Errorf("requests = %d, want %d (one per pattern)", st.Requests, len(breq.Patterns))
	}

	// A repeat of the same batch is answered entirely from cache.
	computes := st.Computes
	again, err := bat.ComputeBatch(context.Background(), breq)
	if err != nil {
		t.Fatalf("repeat ComputeBatch: %v", err)
	}
	for i, resp := range again.Responses {
		if !resp.Cached {
			t.Errorf("repeat responses[%d] not served from cache", i)
		}
	}
	if got := bat.Stats().Computes; got != computes {
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
	stats := s2.Stats()
	if stats.Computes != 0 {
		t.Errorf("restarted service recomputed: computes = %d, want 0", stats.Computes)
	}
	if stats.StoreHits != 1 {
		t.Errorf("store hits = %d, want 1", stats.StoreHits)
	}
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
		computes += f.svcs[name].Stats().Computes
	}
	if computes != distinct {
		t.Errorf("cluster-wide computes = %d, want %d (one per fingerprint)", computes, distinct)
	}
	if fw := front.Stats().Forwards; fw == 0 {
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

func TestShedOnPressure(t *testing.T) {
	s := New(Config{Workers: 1, ReadyMaxQueue: 1, ShedOnPressure: true})
	defer s.Close()
	s.stats.queueDepth.Set(1) // saturate the admission threshold
	resp, err := s.Compute(context.Background(), &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !resp.Degraded {
		t.Error("admission control did not shed to the identity mapping")
	}
	if got := s.Stats().Shed; got != 1 {
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
// bound.
func TestCacheBytesBound(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 64, CacheBytes: 1})
	defer s.Close()
	for i := 0; i < 4; i++ {
		req := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{1024 * (i + 1)}}
		if _, err := s.Compute(context.Background(), req); err != nil {
			t.Fatalf("Compute %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1 (byte budget keeps only the newest)", st.CacheEntries)
	}
	if st.CacheBytes <= 0 {
		t.Errorf("cache bytes = %d, want > 0", st.CacheBytes)
	}
}

// TestSynthTableEndpoint: tables round-trip over PUT/GET and survive a
// restart through the store.
func TestSynthTableEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	st1 := openTestStore(t, path)
	s1 := New(Config{Workers: 2, Store: st1})
	srv := httptest.NewServer(s1.Handler())

	table := &synth.Table{Topology: "00000000cafe0001"}
	table.Put(synth.Entry{
		Family: "broadcast", P: 16, SizeBucket: 10, PayloadBytes: 1024,
		Recipe: synth.Recipe{Alg: "binomial-broadcast"},
		Name:   "bcast-test", Schedule: "deadbeef",
	})
	body, err := table.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	putReq, _ := http.NewRequest(http.MethodPut, srv.URL+"/synth/table", bytes.NewReader(body))
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatalf("PUT /synth/table: %v", err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /synth/table = %d, want 200", putResp.StatusCode)
	}

	getResp, err := http.Get(srv.URL + "/synth/table?topology=" + table.Topology)
	if err != nil {
		t.Fatalf("GET /synth/table: %v", err)
	}
	var got synth.Table
	if err := json.NewDecoder(getResp.Body).Decode(&got); err != nil {
		t.Fatalf("decode table: %v", err)
	}
	getResp.Body.Close()
	if got.Topology != table.Topology || len(got.Entries) != 1 || got.Entries[0].Name != "bcast-test" {
		t.Fatalf("round-tripped table = %+v", got)
	}

	listResp, err := http.Get(srv.URL + "/synth/table")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	var list struct {
		Topologies []string `json:"topologies"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	listResp.Body.Close()
	if len(list.Topologies) != 1 || list.Topologies[0] != table.Topology {
		t.Fatalf("topology list = %v", list.Topologies)
	}

	missResp, err := http.Get(srv.URL + "/synth/table?topology=ffffffffffffffff")
	if err != nil {
		t.Fatalf("GET missing: %v", err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("missing table = %d, want 404", missResp.StatusCode)
	}

	srv.Close()
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openTestStore(t, path)
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2})
	defer s2.Close()
	held, ok := s2.SynthTable(table.Topology)
	if !ok {
		t.Fatal("synth table lost across restart")
	}
	if len(held.Entries) != 1 || held.Entries[0].Name != "bcast-test" {
		t.Fatalf("restarted table = %+v", held)
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
	if n := degraded(got); n != 0 || s.Stats().Shed != 0 {
		t.Errorf("idle service: %d of 16 batch items degraded, shed = %d; want 0 and 0", n, s.Stats().Shed)
	}

	s.stats.queueDepth.Set(int64(s.cfg.ReadyMaxQueue)) // someone else's backlog
	got, err = s.ComputeBatch(context.Background(), batch(4096))
	s.stats.queueDepth.Set(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := degraded(got); n != 16 || s.Stats().Shed != 16 {
		t.Errorf("saturated service: %d of 16 batch items degraded, shed = %d; want 16 and 16", n, s.Stats().Shed)
	}
}
