package service

import (
	"context"
	"strings"
	"testing"
)

func benchRequest(size int) *Request {
	return &Request{
		Topology: TopologySpec{Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4},
		Pattern:  PatternSpec{Name: "recursive-doubling"},
		Sizes:    []int{size},
	}
}

// BenchmarkServiceRequest measures the two ends of the service: cold (every
// iteration a distinct key, full heuristic + pricing computation) and warm
// (one key, answered from the content-addressed cache).
func BenchmarkServiceRequest(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		s := New(Config{Workers: 4, CacheEntries: 1})
		defer s.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// i+1 distinct bytes per iteration: never the same content hash.
			if _, err := s.Compute(context.Background(), benchRequest(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := New(Config{Workers: 4, CacheEntries: 16})
		defer s.Close()
		if _, err := s.Compute(context.Background(), benchRequest(1024)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := s.Compute(context.Background(), benchRequest(1024))
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("warm request missed the cache")
			}
		}
	})
	b.Run("warm-parallel", func(b *testing.B) {
		s := New(Config{Workers: 4, CacheEntries: 16})
		defer s.Close()
		if _, err := s.Compute(context.Background(), benchRequest(1024)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := s.Compute(context.Background(), benchRequest(1024)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// coldClasses are the request classes that dominate a mapd-cold round (see
// bench/README.md): the all-to-alls on the two 256-core clusters and the two
// heaviest GPC patterns, as (goldenTopologies name, pattern).
var coldClasses = [][2]string{
	{"torus-256", "alltoall"},
	{"fattree-256", "alltoall"},
	{"gpc", "recursive-doubling"},
	{"gpc", "binomial-gather"},
}

// BenchmarkServiceColdClass measures one cold Compute per class: fresh sizes
// every iteration make every request a new cache key, so each pays topology,
// oracle, heuristic, schedule build, contention profile and pricing.
func BenchmarkServiceColdClass(b *testing.B) {
	for _, cl := range coldClasses {
		var topo TopologySpec
		for _, t := range goldenTopologies {
			if t.name == cl[0] {
				topo = t.spec
			}
		}
		b.Run(strings.ReplaceAll(cl[0], "-", "")+"-"+cl[1], func(b *testing.B) {
			s := New(Config{Workers: 4, CacheEntries: 1})
			defer s.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := &Request{
					Topology: topo,
					Pattern:  PatternSpec{Name: cl[1]},
					Sizes:    []int{1024 + i + 1, 65536 + i + 1},
				}
				resp, err := s.Compute(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Cached || resp.Degraded {
					b.Fatalf("iteration %d was not a cold compute: %+v", i, resp)
				}
			}
		})
	}
}
