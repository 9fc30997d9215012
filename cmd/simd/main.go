// Command simd serves stack analysis over HTTP: simulation requests are
// answered from a two-tier content-addressed result cache, deduplicated in
// flight, and load-shed when the bounded simulation queue is full.
//
// Usage:
//
//	simd -addr :8080 -cache /var/cache/simd -workers 8 [-traces DIR]
//
// Processes on one host share results through a common -cache directory.
//
// Endpoints:
//
//	POST /v1/simulate          run (or fetch) a simulation; see internal/service
//	POST /v1/sensitivity       fan out a perturbation plan to a ranked
//	                           sensitivity report (?stream=1 for NDJSON
//	                           progress); see internal/sensitivity
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text metrics
//	GET  /debug/pprof/         runtime profiles
//
// SIGINT/SIGTERM starts a graceful drain: the listener stops accepting,
// in-flight requests get -drain to finish, then running simulations are
// canceled cooperatively.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfstacks/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", "", "on-disk result cache directory (empty = memory tier only)")
	memCache := flag.Int64("cachemem", 64<<20, "in-memory result cache budget in bytes")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond running jobs (0 = one per worker)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-simulation timeout (0 = unbounded)")
	traces := flag.String("traces", "", "directory served for trace_path requests (empty = generator workloads only)")
	plans := flag.Int("plans", 0, "concurrent sensitivity plans admitted (0 = 2); further plans are shed with 429")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget before in-flight requests are dropped")
	flag.Parse()

	logger := log.New(os.Stderr, "simd: ", log.LstdFlags)
	cfg := service.Config{
		CacheDir:      *cacheDir,
		MemCacheBytes: *memCache,
		Workers:       *workers,
		QueueDepth:    *queue,
		JobTimeout:    *timeout,
		MaxPlans:      *plans,
		TraceDir:      *traces,
		Log:           logger,
	}
	if err := run(*addr, cfg, *drain, logger); err != nil {
		logger.Fatal(err)
	}
}

func run(addr string, cfg service.Config, drain time.Duration, logger *log.Logger) error {
	// base governs the simulations; canceling it on shutdown makes running
	// producers stop cooperatively instead of holding the drain hostage.
	base, stopSims := context.WithCancel(context.Background())
	defer stopSims()

	srv, err := service.New(base, cfg)
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (cache %q, traces %q)", addr, cfg.CacheDir, cfg.TraceDir)
		serveErr <- hs.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-sigCtx.Done():
	}
	logger.Printf("shutting down: draining for up to %s", drain)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err = hs.Shutdown(shutdownCtx)
	// Whatever is still simulating now has no client worth waiting for.
	stopSims()
	srv.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("drained")
	return nil
}
