package service

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestComputeSingleSizeDeadlineDegrades: with one requested size the pricing
// loop's per-size budget check runs once, before the schedule is built and
// profiled, so an overrun inside that step used to be answered as a healthy
// response and cached and persisted. An all-to-all over 1024 ranks (1023
// stages of 1024 transfers, hundreds of milliseconds to profile) against a
// budget far below that must degrade promptly and leave no trace.
func TestComputeSingleSizeDeadlineDegrades(t *testing.T) {
	st := openTestStore(t, filepath.Join(t.TempDir(), "mapd.store"))
	defer st.Close()
	s := New(Config{Workers: 2, CacheEntries: 64, Store: st})
	defer s.Close()

	topo := TopologySpec{
		Nodes: 128, SocketsPerNode: 2, CoresPerSocket: 4,
		Network: &NetworkSpec{Kind: "fattree", Leaves: 8, NodesPerLeaf: 16, Uplinks: 8},
	}
	// Build the topology context (its fingerprint) first so the budget is
	// spent in the computation, as it is for every request after a daemon's
	// first.
	if _, err := s.Compute(context.Background(), &Request{
		Topology: topo, Pattern: PatternSpec{Name: "ring"}, Sizes: []int{8}, TimeoutMillis: 1,
	}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	entries, records := kept(&s.results), st.Stats().Records

	const timeout = 40 * time.Millisecond
	start := time.Now()
	resp, err := s.Compute(context.Background(), &Request{
		Topology: topo, Pattern: PatternSpec{Name: "alltoall"},
		Sizes: []int{4096}, TimeoutMillis: int(timeout / time.Millisecond),
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if !resp.Degraded {
		t.Fatalf("a %v budget was answered healthy after %v", timeout, elapsed)
	}
	if !core.Mapping(resp.Mapping).IsIdentity() || len(resp.Mapping) != 1024 {
		t.Error("degraded response is not the identity mapping over 1024 ranks")
	}
	if len(resp.Results) != 0 {
		t.Errorf("degraded response carries %d priced rows", len(resp.Results))
	}
	if got := kept(&s.results); got != entries {
		t.Errorf("result cache grew from %d to %d entries on a degraded response", entries, got)
	}
	if got := st.Stats().Records; got != records {
		t.Errorf("store grew from %d to %d records on a degraded response", records, got)
	}
	// The profile walk checks the budget once per stage; only the schedule
	// build (tens of milliseconds here) is uninterruptible.
	if elapsed > 15*timeout {
		t.Errorf("degraded reply took %v against a %v budget", elapsed, timeout)
	}
}

// TestComputeDoesNotTouchCompileCache: the compute path prices the schedules
// it builds directly; it must perform no compile-cache lookup at all — the
// cache key is a hash of the whole schedule, dearer than the compile a hit
// would save.
func TestComputeDoesNotTouchCompileCache(t *testing.T) {
	s := newTestService(t)
	ctx := context.Background()
	hits, misses := sched.CompileCacheCounters()
	for _, req := range []*Request{
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "recursive-doubling"}},
		{Topology: smallTopo(), Pattern: PatternSpec{Name: "binomial-gather"}, Heuristic: "auto"},
		{Topology: torusTopo16(), Pattern: PatternSpec{Name: "alltoall"}, Sizes: []int{4096}},
	} {
		if resp, err := s.Compute(ctx, req); err != nil || resp.Cached || resp.Degraded {
			t.Fatalf("%s: resp=%+v err=%v", req.Pattern.Name, resp, err)
		}
	}
	breq := &BatchRequest{Topology: smallTopo(), Layout: "cyclic-bunch", Heuristic: "auto"}
	for _, name := range []string{"ring", "recursive-doubling", "binomial-broadcast", "binomial-gather"} {
		breq.Patterns = append(breq.Patterns, BatchPattern{Name: name})
	}
	if _, err := s.ComputeBatch(ctx, breq); err != nil {
		t.Fatalf("ComputeBatch: %v", err)
	}
	if h, m := sched.CompileCacheCounters(); h != hits || m != misses {
		t.Errorf("compile cache consulted: hits %d -> %d, misses %d -> %d", hits, h, misses, m)
	}
}

// TestScheduleBuiltOncePerEnv drives one topology context the way a batch, or
// a burst of unrelated requests, does — concurrent "auto" computations of one
// pattern — and asserts through the context's own memo that the schedule was
// built exactly once: one memo
// entry, every reader handed the same instance, and that instance still
// structurally what the registry builds (profiling and order preservation
// read it, never write it). Run under -race -count=10 in CI.
func TestScheduleBuiltOncePerEnv(t *testing.T) {
	s := newTestService(t)
	c, err := s.compile(&Request{
		Topology: smallTopo(), Layout: "cyclic-scatter", Heuristic: "auto",
		Pattern: PatternSpec{Name: "recursive-doubling"}, Sizes: []int{512, 8192, 131072},
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	env := c.tc
	const workers = 8
	seen := make([]*sched.Schedule, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := s.run(context.Background(), c, func(string) {})
			if err != nil || resp.Degraded || resp.Schedule != "recursive-doubling" || len(resp.Results) != 3 {
				t.Errorf("worker %d: resp=%+v err=%v", g, resp, err)
				return
			}
			if seen[g], err = env.scheduleFor(context.Background(), c.pattern); err != nil {
				t.Errorf("worker %d: scheduleFor: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if n := kept(&env.scheds); n != 1 {
		t.Fatalf("context memoised %d schedules for one pattern", n)
	}
	for g := 1; g < workers; g++ {
		if seen[g] != seen[0] {
			t.Fatalf("worker %d read a different schedule instance: the pattern was built more than once", g)
		}
	}
	fresh, err := sched.ForPattern(c.pattern, c.procs)
	if err != nil {
		t.Fatal(err)
	}
	if seen[0] == nil || sched.Fingerprint(seen[0]) != sched.Fingerprint(fresh) {
		t.Error("the shared schedule no longer matches a fresh build: a reader modified it")
	}
	if n := kept(&env.baseProfs); n != 1 {
		t.Errorf("context holds %d base profiles for one pattern", n)
	}
}
