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

// BenchmarkServiceRequest measures the two ends of the result cache: cold
// (every iteration a distinct key, computed on the topology context the first
// iteration left behind) and warm (one key, answered from the
// content-addressed cache).
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

// coldContextService returns a fresh Service that holds topo under a layout
// the benchmarks do not ask for. The cluster's fingerprint (100 ms on GPC,
// taken once per cluster a service holds) is thereby paid off the clock, as
// the process-wide memo paid it when DESIGN's per-class figures were taken,
// while everything a request under another layout needs — oracle, machine,
// mapping, schedule, profiles — is still to be built.
func coldContextService(b *testing.B, cfg Config, topo TopologySpec) *Service {
	b.Helper()
	s := New(cfg)
	if _, err := s.Compute(context.Background(), &Request{
		Topology: topo, Layout: "cyclic-scatter", Pattern: PatternSpec{Name: "ring"}, Sizes: []int{8},
	}); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServiceColdClass measures one result-cache-cold Compute per class,
// fresh sizes every iteration making every request a new cache key.
// cold-context builds a fresh Service per iteration, so each request pays
// context, oracle, heuristic, schedule build, contention profile and pricing
// (the figures of DESIGN's per-class table); warm-context keeps one Service,
// so every iteration after the first prices on what the context holds.
func BenchmarkServiceColdClass(b *testing.B) {
	cfg := Config{Workers: 4, CacheEntries: 1}
	for _, cl := range coldClasses {
		var topo TopologySpec
		for _, t := range goldenTopologies {
			if t.name == cl[0] {
				topo = t.spec
			}
		}
		compute := func(b *testing.B, s *Service, i int) {
			resp, err := s.Compute(context.Background(), &Request{
				Topology: topo,
				Pattern:  PatternSpec{Name: cl[1]},
				Sizes:    []int{1024 + i + 1, 65536 + i + 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Cached || resp.Degraded {
				b.Fatalf("iteration %d was not a computation: %+v", i, resp)
			}
		}
		name := strings.ReplaceAll(cl[0], "-", "") + "-" + cl[1]
		b.Run(name+"/cold-context", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := coldContextService(b, cfg, topo)
				b.StartTimer()
				compute(b, s, i)
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
		b.Run(name+"/warm-context", func(b *testing.B) {
			s := coldContextService(b, cfg, topo)
			defer s.Close()
			compute(b, s, -1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compute(b, s, i)
			}
		})
	}
}
