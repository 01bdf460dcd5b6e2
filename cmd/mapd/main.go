// Command mapd serves topology-aware rank mappings over HTTP. A POST to
// /map with a topology, a communication pattern and a heuristic selector
// answers with the rank permutation, the modelled default/reordered latency
// per message size and the adaptive-routing decision; a "patterns" array in
// the body maps a whole batch against one topology build. /metrics exposes
// every counter of the layers mapd runs, in the Prometheus text format;
// /healthz answers liveness and /readyz readiness (503 once the worker-pool
// queue reaches the shedding threshold). mapd computes mappings and never
// executes a collective or searches a schedule, so it links neither the
// goroutine runtime nor the synthesiser. With -pprof, the net/http/pprof
// profiling endpoints mount under /debug/pprof/.
//
// With -store, computed mappings persist to an append-friendly
// content-addressed log and survive restarts; -warm
// precomputes a preset's request set into the store and exits. With -self
// and -peers, N replicas partition the fingerprint space on a consistent
// ring and forward misses to the owning shard.
//
// Usage:
//
//	mapd -addr :7117
//	mapd -addr 127.0.0.1:7117 -workers 8 -cache 1024 -timeout 5s -pprof
//	mapd -store /var/lib/mapd/store.log -warm gpc
//	mapd -addr :7117 -store a.log -self a -peers 'b=http://h2:7117,c=http://h3:7117'
//
//	curl -s localhost:7117/map -d '{
//	  "topology": {"preset": "gpc"},
//	  "pattern":  {"name": "recursive-doubling"},
//	  "heuristic": "auto",
//	  "sizes": [1024, 65536]
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":7117", "listen address")
	workers := flag.Int("workers", 0, "concurrent mapping computations (0: one per CPU)")
	cacheEntries := flag.Int("cache", 512, "result-cache capacity (entries)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result-cache byte budget (0: 256 MiB default)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
	storePath := flag.String("store", "", "persistent store path (empty: in-memory only)")
	warm := flag.String("warm", "", "precompute a preset's warm set into -store and exit; one of "+strings.Join(service.WarmPresets(), ", "))
	self := flag.String("self", "", "this replica's name on the consistent-hash ring")
	peers := flag.String("peers", "", "fleet peers as name=url,name=url")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per ring member (0: default)")
	shed := flag.Bool("shed", true, "shed to identity mappings once the pool queue reaches the readiness threshold")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger := log.New(os.Stderr, "mapd: ", log.LstdFlags)
	cfg := service.Config{
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		ShedOnPressure: *shed,
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mapd:", err)
		os.Exit(1)
	}

	if *storePath != "" {
		st, err := store.Open(*storePath)
		if err != nil {
			fail(err)
		}
		defer st.Close()
		cfg.Store = st
	}

	if *warm != "" {
		if cfg.Store == nil {
			fail(errors.New("-warm needs -store: a warm set with nowhere to persist is lost on exit"))
		}
		n, err := runWarm(context.Background(), cfg, *warm, logger)
		if err != nil {
			fail(err)
		}
		logger.Printf("warmed %d mappings into %s", n, *storePath)
		return
	}

	if *self != "" || *peers != "" {
		shardCfg, err := parseShard(*self, *peers, *vnodes)
		if err != nil {
			fail(err)
		}
		cfg.Shard = shardCfg
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, cfg, *enablePprof, logger); err != nil {
		fail(err)
	}
}

// runWarm computes the preset's warm set through a short-lived service so
// every mapping persists to the configured store.
func runWarm(ctx context.Context, cfg service.Config, preset string, logger *log.Logger) (int, error) {
	cfg.ShedOnPressure = false // warming queues on purpose
	svc := service.New(cfg)
	defer svc.Close()
	logger.Printf("warming preset %q", preset)
	n, err := svc.Warm(ctx, preset)
	if err != nil {
		return n, err
	}
	if err := cfg.Store.Sync(); err != nil {
		return n, err
	}
	return n, nil
}

// parseShard resolves the -self/-peers/-vnodes flags into a ShardConfig.
func parseShard(self, peers string, vnodes int) (*service.ShardConfig, error) {
	if self == "" {
		return nil, errors.New("-peers needs -self: the ring must know this replica's name")
	}
	peerMap := make(map[string]string)
	if peers != "" {
		for _, part := range strings.Split(peers, ",") {
			name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || name == "" || url == "" {
				return nil, fmt.Errorf("bad -peers entry %q, want name=url", part)
			}
			peerMap[name] = url
		}
	}
	return &service.ShardConfig{Self: self, Peers: peerMap, VNodes: vnodes}, nil
}

// run serves until ctx is cancelled, then shuts down gracefully: the
// listener closes, in-flight requests finish (bounded by their own
// deadlines) and the worker pool drains.
func run(ctx context.Context, addr string, cfg service.Config, enablePprof bool, logger *log.Logger) error {
	svc := service.New(cfg)
	defer svc.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	handler := svc.Handler()
	if enablePprof {
		// The service handler owns its own mux, so the pprof endpoints are
		// mounted explicitly instead of through http.DefaultServeMux.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	logger.Printf("serving on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	grace := cfg.MaxTimeout
	if grace <= 0 {
		// An unset MaxTimeout means the service default, not "no grace": a
		// zero budget made Shutdown fail whenever a connection was still busy.
		grace = time.Minute
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
