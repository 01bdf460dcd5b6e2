package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestLoadSingleFlight hammers the service with many concurrent clients
// over a small set of distinct requests and asserts the content-addressed
// cache plus single-flight dedup did exactly one computation per distinct
// key. Run under -race this also exercises every synchronisation point:
// cache, flight group, pool, stats.
func TestLoadSingleFlight(t *testing.T) {
	const (
		clients    = 16
		iterations = 25
		keys       = 8
	)
	s := New(Config{Workers: 4, CacheEntries: keys * 2})
	defer s.Close()

	// keys distinct requests: same topology and pattern, distinct size
	// sweeps (sizes are part of the content hash).
	reqs := make([]*Request, keys)
	for k := range reqs {
		reqs[k] = &Request{
			Topology: TopologySpec{Nodes: 2, SocketsPerNode: 2, CoresPerSocket: 2},
			Pattern:  PatternSpec{Name: "ring"},
			Sizes:    []int{64 << k},
		}
	}

	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		errs  = make(chan error, clients)
	)
	start.Add(clients)
	done.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer done.Done()
			start.Done()
			<-gate // maximise request overlap
			for i := 0; i < iterations; i++ {
				req := reqs[(c+i)%keys]
				resp, err := s.Compute(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("client %d iter %d: %w", c, i, err)
					return
				}
				if resp.Degraded {
					errs <- fmt.Errorf("client %d iter %d: degraded under load", c, i)
					return
				}
				if len(resp.Mapping) != 8 {
					errs <- fmt.Errorf("client %d iter %d: %d ranks", c, i, len(resp.Mapping))
					return
				}
			}
			errs <- nil
		}(c)
	}
	start.Wait()
	close(gate)
	done.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.stats
	total := uint64(clients * iterations)
	requests := st.requests.Value()
	if requests != total {
		t.Errorf("requests = %d, want %d", requests, total)
	}
	if n := st.computes.Value(); n != keys {
		t.Errorf("computes = %d, want exactly %d (one per distinct key)", n, keys)
	}
	if n := st.cacheEntries.Value(); n != keys {
		t.Errorf("cache holds %d entries, want %d", n, keys)
	}
	// Every request is a cache hit, a single-flight follower, or one of the
	// `keys` leaders — so the hit ratio is exact.
	hits, shared := st.cacheHits.Value(), st.flightShared.Value()
	want := float64(total-keys) / float64(total)
	if ratio := float64(hits+shared) / float64(requests); math.Abs(ratio-want) > 1e-9 {
		t.Errorf("hit ratio = %.6f, want %.6f", ratio, want)
	}
	if hits+shared != total-keys {
		t.Errorf("hits %d + shared %d != %d", hits, shared, total-keys)
	}
	if ok, degraded, errored, inFlight := st.ok.Value(), st.degraded.Value(), st.errored.Value(), st.inFlight.Value(); ok != total || degraded != 0 || errored != 0 || inFlight != 0 {
		t.Errorf("outcome counters: ok %d, degraded %d, errors %d, in flight %d; want %d, 0, 0, 0", ok, degraded, errored, inFlight, total)
	}

	// Afterwards every key answers from cache.
	for k, req := range reqs {
		resp, err := s.Compute(context.Background(), req)
		if err != nil {
			t.Fatalf("key %d after load: %v", k, err)
		}
		if !resp.Cached {
			t.Errorf("key %d not cached after load", k)
		}
	}
}

// TestLoadEviction drives more distinct keys than the cache holds and
// checks the LRU stays bounded while every response remains correct.
func TestLoadEviction(t *testing.T) {
	const capacity = 4
	s := New(Config{Workers: 4, CacheEntries: capacity})
	defer s.Close()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				_, err := s.Compute(context.Background(), &Request{
					Topology: TopologySpec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 4},
					Pattern:  PatternSpec{Name: "binomial-broadcast"},
					Sizes:    []int{32 << ((c + i) % 10)},
				})
				if err != nil {
					t.Errorf("client %d iter %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := s.stats.cacheEntries.Value(); n > capacity {
		t.Errorf("cache grew to %d entries, capacity %d", n, capacity)
	}
}
