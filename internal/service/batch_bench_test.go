package service

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/store"
)

// planetBatch is the acceptance workload: 32 distinct patterns (4 pattern
// families x 4 fine-tuned heuristics x 2 size points) against the p=4096
// fat-tree GPC preset.
func planetBatch() *BatchRequest {
	breq := &BatchRequest{Topology: TopologySpec{Preset: "gpc"}}
	for _, pattern := range []string{"ring", "recursive-doubling", "binomial-broadcast", "binomial-gather"} {
		for _, heuristic := range []string{"rdmh", "rmh", "bbmh", "bgmh"} {
			for _, size := range []int{1024, 65536} {
				breq.Patterns = append(breq.Patterns, BatchPattern{
					Name: pattern, Heuristic: heuristic, Sizes: []int{size},
				})
			}
		}
	}
	return breq
}

// BenchmarkBatchMapSpeedup pins the batch amortisation claim: mapping the
// 32-pattern planet workload as one batch against N=32 sequential requests.
// cold-context gives every sequential request, and the batch, a Service that
// has not seen the layout (coldContextService), so the sequential side builds
// the context's oracle, mappings, schedules and profiles 32 times and the
// batch once — the ratio the batch path was built for. warm-context runs the
// 32 sequential requests on one fresh Service, the way a daemon receives
// them: they now share through the kept context what a batch shares, and the
// ratio that remains is the fan-out across the pool.
func BenchmarkBatchMapSpeedup(b *testing.B) {
	ctx := context.Background()
	breq := planetBatch()
	cfg := Config{Workers: runtime.NumCPU()}
	for _, mode := range []string{"cold-context", "warm-context"} {
		b.Run(mode, func(b *testing.B) {
			var seqTotal, batTotal time.Duration
			for i := 0; i < b.N; i++ {
				var seqSvc *Service
				for j := range breq.Patterns {
					if seqSvc == nil || mode == "cold-context" {
						if seqSvc != nil {
							seqSvc.Close()
						}
						seqSvc = coldContextService(b, cfg, breq.Topology)
					}
					start := time.Now()
					resp, err := seqSvc.Compute(ctx, breq.itemRequest(j))
					seqTotal += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					if resp.Degraded || resp.Cached {
						b.Fatalf("sequential request %d degraded=%v cached=%v", j, resp.Degraded, resp.Cached)
					}
				}
				seqSvc.Close()

				batSvc := coldContextService(b, cfg, breq.Topology)
				start := time.Now()
				got, err := batSvc.ComputeBatch(ctx, breq)
				batTotal += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				for j, resp := range got.Responses {
					if resp.Degraded || resp.Cached {
						b.Fatalf("batch response %d degraded=%v cached=%v", j, resp.Degraded, resp.Cached)
					}
				}
				batSvc.Close()
			}
			n := float64(b.N)
			b.ReportMetric(seqTotal.Seconds()/n, "sequential_s")
			b.ReportMetric(batTotal.Seconds()/n, "batch_s")
			b.ReportMetric(seqTotal.Seconds()/batTotal.Seconds(), "speedup_x")
		})
	}
}

// BenchmarkWarmStoreRestart measures the cold-start win of the persistent
// store: open a warmed store, build a service on it and serve the first
// repeat request, which must come back as a store hit with no recompute.
func BenchmarkWarmStoreRestart(b *testing.B) {
	ctx := context.Background()
	path := filepath.Join(b.TempDir(), "store.log")
	req := &Request{Topology: TopologySpec{Preset: "gpc"}, Pattern: PatternSpec{Name: "ring"}}

	st := openTestStore(b, path)
	svc := New(Config{Workers: runtime.NumCPU(), Store: st})
	if _, err := svc.Compute(ctx, req); err != nil {
		b.Fatal(err)
	}
	svc.Close()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	var firstServe time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		st, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		svc := New(Config{Workers: runtime.NumCPU(), Store: st})
		resp, err := svc.Compute(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		firstServe += time.Since(start)
		if !resp.Cached {
			b.Fatal("restarted service recomputed instead of hitting the store")
		}
		if svc.Stats().Computes != 0 {
			b.Fatal("restarted service performed a computation")
		}
		svc.Close()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(firstServe.Seconds()/float64(b.N)*1e3, "restart_ms")
}
