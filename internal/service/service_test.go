package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// smallTopo is a 4-node 2x2 cluster: 16 cores, fast enough for unit tests.
func smallTopo() TopologySpec {
	return TopologySpec{Nodes: 4, SocketsPerNode: 2, CoresPerSocket: 2}
}

func newTestService(t *testing.T) *Service {
	t.Helper()
	s := New(Config{Workers: 2, CacheEntries: 64})
	t.Cleanup(s.Close)
	return s
}

func checkPermutation(t *testing.T, m []int, p int) {
	t.Helper()
	if len(m) != p {
		t.Fatalf("mapping has %d entries, want %d", len(m), p)
	}
	if err := core.Mapping(m).Validate(); err != nil {
		t.Fatalf("mapping not a permutation: %v", err)
	}
}

func TestComputeNamedPattern(t *testing.T) {
	s := newTestService(t)
	req := &Request{
		Topology: smallTopo(),
		Pattern:  PatternSpec{Name: "ring"},
		Sizes:    []int{1024, 65536},
	}
	resp, err := s.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	checkPermutation(t, resp.Mapping, 16)
	if resp.Heuristic != "rmh" {
		t.Errorf("heuristic = %q, want rmh (the ring's own)", resp.Heuristic)
	}
	if resp.Degraded || resp.Cached {
		t.Errorf("fresh computation flagged degraded=%v cached=%v", resp.Degraded, resp.Cached)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d size results, want 2", len(resp.Results))
	}
	for _, r := range resp.Results {
		if r.DefaultSeconds <= 0 || r.ReorderedSeconds <= 0 {
			t.Errorf("non-positive modelled latency at %d bytes: %+v", r.Bytes, r)
		}
	}
	if resp.Results[0].Bytes != 1024 || resp.Results[1].Bytes != 65536 {
		t.Errorf("results out of order: %+v", resp.Results)
	}
}

func TestComputeCacheHit(t *testing.T) {
	s := newTestService(t)
	req := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "recursive-doubling"}}
	first, err := s.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("first Compute: %v", err)
	}
	second, err := s.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("second Compute: %v", err)
	}
	if first.Cached {
		t.Error("first response claims cached")
	}
	if !second.Cached {
		t.Error("second identical request missed the cache")
	}
	if len(first.Mapping) != len(second.Mapping) {
		t.Fatal("cached mapping differs in length")
	}
	for i := range first.Mapping {
		if first.Mapping[i] != second.Mapping[i] {
			t.Fatalf("cached mapping differs at %d", i)
		}
	}
	st := s.Stats()
	if st.Computes != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats computes=%d hits=%d misses=%d, want 1/1/1", st.Computes, st.CacheHits, st.CacheMisses)
	}
}

// TestCacheKeyCanonical: permuted size lists and an explicit default must
// share one cache entry with their canonical twins.
func TestCacheKeyCanonical(t *testing.T) {
	s := newTestService(t)
	base := &Request{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{65536, 1024}}
	if _, err := s.Compute(context.Background(), base); err != nil {
		t.Fatalf("Compute: %v", err)
	}
	variants := []*Request{
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{1024, 65536}},
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{1024, 1024, 65536}},
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}},                   // defaults are the same sweep
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Heuristic: "rmh"}, // explicit default selector
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Layout: "block-bunch"},
	}
	for i, v := range variants {
		resp, err := s.Compute(context.Background(), v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !resp.Cached {
			t.Errorf("variant %d missed the cache; canonicalisation broken", i)
		}
	}
	if st := s.Stats(); st.Computes != 1 {
		t.Errorf("computes = %d, want 1 across canonical variants", st.Computes)
	}
}

func TestComputeAutoPicksBestCandidate(t *testing.T) {
	s := newTestService(t)
	req := &Request{
		Topology:  smallTopo(),
		Pattern:   PatternSpec{Name: "binomial-broadcast"},
		Heuristic: "auto",
		Sizes:     []int{4096},
	}
	resp, err := s.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	checkPermutation(t, resp.Mapping, 16)
	won := false
	for _, name := range autoCandidates {
		if resp.Heuristic == name {
			won = true
		}
	}
	if !won {
		t.Errorf("auto selected %q, not one of %v", resp.Heuristic, autoCandidates)
	}
	// The winner's modelled cost must not exceed any single candidate's:
	// re-ask for each candidate explicitly and compare.
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	for _, name := range autoCandidates {
		single, err := s.Compute(context.Background(), &Request{
			Topology: smallTopo(), Pattern: PatternSpec{Name: "binomial-broadcast"},
			Heuristic: name, Sizes: []int{4096},
		})
		if err != nil {
			t.Fatalf("candidate %s: %v", name, err)
		}
		if single.Results[0].ReorderedSeconds < resp.Results[0].ReorderedSeconds-1e-12 {
			t.Errorf("auto winner %s (%.3g s) beaten by %s (%.3g s)",
				resp.Heuristic, resp.Results[0].ReorderedSeconds, name, single.Results[0].ReorderedSeconds)
		}
	}
}

func TestComputeExplicitGraph(t *testing.T) {
	s := newTestService(t)
	// A ring over 16 processes, given explicitly in CSR form (each edge in
	// both directions).
	const n = 16
	var xadj []int
	var adjncy []int
	for u := 0; u < n; u++ {
		xadj = append(xadj, len(adjncy))
		adjncy = append(adjncy, (u+1)%n, (u+n-1)%n)
	}
	xadj = append(xadj, len(adjncy))
	req := &Request{
		Topology: smallTopo(),
		Pattern:  PatternSpec{Graph: &GraphSpec{N: n, XAdj: xadj, Adjncy: adjncy}},
	}
	resp, err := s.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	checkPermutation(t, resp.Mapping, n)
	if resp.Heuristic != "scotch" {
		t.Errorf("graph request used %q, want scotch by default", resp.Heuristic)
	}
	if resp.GraphCost == nil {
		t.Fatal("graph request returned no GraphCost")
	}
	if len(resp.Results) != 0 {
		t.Errorf("graph request returned size results: %+v", resp.Results)
	}
	if resp.GraphCost.Reordered > resp.GraphCost.Default {
		t.Errorf("scotch mapping worse than identity: %d > %d",
			resp.GraphCost.Reordered, resp.GraphCost.Default)
	}
}

func TestComputeDeadlineDegrades(t *testing.T) {
	s := newTestService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // budget already spent before the request starts
	start := time.Now()
	resp, err := s.Compute(ctx, &Request{
		Topology: TopologySpec{Preset: "gpc"},
		Pattern:  PatternSpec{Name: "recursive-doubling"},
	})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("expired request not flagged degraded")
	}
	id := core.Identity(len(resp.Mapping))
	for i := range id {
		if resp.Mapping[i] != id[i] {
			t.Fatalf("degraded mapping not identity at %d", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("degradation took %v; should not block on the computation", elapsed)
	}
	// Degraded responses must not poison the cache.
	if resp2, err := s.Compute(context.Background(), &Request{
		Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"},
	}); err != nil || resp2.Degraded {
		t.Errorf("later healthy request: resp=%+v err=%v", resp2, err)
	}
	st := s.Stats()
	if st.Degraded == 0 {
		t.Error("stats did not count the degraded request")
	}
}

func TestComputeTightTimeoutDegrades(t *testing.T) {
	s := newTestService(t)
	// Build the topology context first so the 1ms budget is spent inside the
	// computation (where cancellation checks live), not in compile.
	if _, err := s.Compute(context.Background(), &Request{
		Topology: TopologySpec{Preset: "gpc"}, Pattern: PatternSpec{Name: "ring"},
		Heuristic: "rmh", Sizes: []int{8}, TimeoutMillis: 1,
	}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	resp, err := s.Compute(context.Background(), &Request{
		Topology: TopologySpec{Preset: "gpc"}, Pattern: PatternSpec{Name: "recursive-doubling"},
		Heuristic: "rdmh", TimeoutMillis: 1,
	})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !resp.Degraded {
		t.Skip("computation finished inside 1ms on this machine")
	}
	checkPermutation(t, resp.Mapping, len(resp.Mapping))
}

func TestComputeTrace(t *testing.T) {
	s := newTestService(t)
	resp, err := s.Compute(context.Background(), &Request{
		Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Trace: true,
	})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("traced request returned no events")
	}
	names := map[string]bool{}
	for _, e := range resp.Trace {
		names[e.Name] = true
		if e.AtMicros < 0 {
			t.Errorf("negative trace timestamp: %+v", e)
		}
	}
	for _, want := range []string{"oracle:hierarchy", "distances", "evaluated:rmh", "selected:rmh"} {
		if !names[want] {
			t.Errorf("trace missing %q; got %v", want, names)
		}
	}
	// Tori have no hierarchy: the oracle mark names the dense fallback.
	torus, err := s.Compute(context.Background(), &Request{
		Topology: torusTopo16(), Pattern: PatternSpec{Name: "ring"}, Trace: true,
	})
	if err != nil {
		t.Fatalf("torus Compute: %v", err)
	}
	dense := false
	for _, e := range torus.Trace {
		dense = dense || e.Name == "oracle:dense"
	}
	if !dense {
		t.Errorf("torus trace has no oracle:dense mark: %+v", torus.Trace)
	}
	// Cached replay gets its own timeline.
	resp2, err := s.Compute(context.Background(), &Request{
		Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Trace: true,
	})
	if err != nil {
		t.Fatalf("cached Compute: %v", err)
	}
	if !resp2.Cached || len(resp2.Trace) == 0 || resp2.Trace[0].Name != "cache-hit" {
		t.Errorf("cached trace = %+v (cached=%v)", resp2.Trace, resp2.Cached)
	}
}

func TestCompileRejects(t *testing.T) {
	s := newTestService(t)
	bad := []Request{
		{Pattern: PatternSpec{Name: "ring"}},                                              // no topology
		{Topology: TopologySpec{Preset: "nope"}, Pattern: PatternSpec{Name: "ring"}},      // bad preset
		{Topology: smallTopo()},                                                           // no pattern
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "all-to-some"}},                // bad pattern
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Heuristic: "magic"},   // bad selector
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Order: "sideways"},    // bad order
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Procs: 1000},          // too many procs
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Layout: "diagonal"},   // bad layout
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{0}},      // bad size
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, TimeoutMillis: -1},    // bad timeout
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "ring", Graph: &GraphSpec{}}},  // both pattern forms
		{Topology: smallTopo(), Pattern: PatternSpec{Graph: &GraphSpec{N: 4, XAdj: nil}}}, // malformed CSR
	}
	for i, req := range bad {
		if _, err := s.Compute(context.Background(), &req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if st := s.Stats(); st.Errors != uint64(len(bad)) {
		t.Errorf("stats errors = %d, want %d", st.Errors, len(bad))
	}
}

func TestHTTPHandler(t *testing.T) {
	s := newTestService(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(Request{
		Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{1024},
	})
	res, err := http.Post(srv.URL+"/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /map: %v", err)
	}
	var resp Response
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("POST /map status %d", res.StatusCode)
	}
	checkPermutation(t, resp.Mapping, 16)

	// Malformed JSON and invalid requests are 400s.
	for _, payload := range []string{"{", `{"unknown_field": 1}`, `{"pattern":{"name":"ring"}}`} {
		res, err := http.Post(srv.URL+"/map", "application/json", bytes.NewReader([]byte(payload)))
		if err != nil {
			t.Fatalf("POST /map: %v", err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", payload, res.StatusCode)
		}
	}

	// GET on /map is rejected; stats and health respond.
	res, err = http.Get(srv.URL + "/map")
	if err != nil {
		t.Fatalf("GET /map: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /map status %d, want 405", res.StatusCode)
	}

	res, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	res.Body.Close()
	if st.Requests < 1 || st.OK < 1 {
		t.Errorf("stats did not count the traffic: %+v", st)
	}

	res, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz status %d", res.StatusCode)
	}
}

func TestOrderDefaults(t *testing.T) {
	s := newTestService(t)
	for _, tc := range []struct {
		pattern string
		want    string
	}{
		{"recursive-doubling", "initComm"},
		{"binomial-gather", "initComm"},
		{"ring", "none"},
		{"binomial-broadcast", "none"},
	} {
		resp, err := s.Compute(context.Background(), &Request{
			Topology: smallTopo(), Pattern: PatternSpec{Name: tc.pattern}, Sizes: []int{64},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.pattern, err)
		}
		if resp.Order != tc.want {
			t.Errorf("%s: order = %q, want %q", tc.pattern, resp.Order, tc.want)
		}
	}
}
