// Command brokerd serves the uptime-optimized brokerage over HTTP —
// the "as-a-service" deployment of the paper's framework (Figure 2).
//
// Usage:
//
//	brokerd [-addr :8080] [-quiet] [-rate-limit 0] [-rate-limit-per-client 0]
//	        [-job-ttl 15m] [-job-workers 0] [-data-dir DIR] [-snapshot-interval 1m]
//	        [-fsync] [-group-commit]
//	        [-cache-entries 1024] [-cache-bytes 0] [-cache-ttl 0] [-sse-ping 15s]
//
// With -data-dir the async job store is durable: every submission,
// state transition and result is journaled to a write-ahead log in
// DIR (compacted into a snapshot every -snapshot-interval), and a
// restart recovers it — completed results stay fetchable, queued jobs
// re-run, and jobs that were mid-run report a restart_lost failure.
// Without -data-dir the store is in-memory, as before. -fsync
// additionally flushes every WAL append to disk for power-loss
// durability at a per-submission latency cost; -group-commit keeps
// that durability while coalescing concurrent appends into shared
// flushes, recovering most of the throughput under load (it
// supersedes -fsync when both are set).
//
// Requests that name no solver run auto, which is the frontier DP; a
// request's "strategy" field (or "solver" object) may name
// "exhaustive" instead, and the retired names, "pruned" among them,
// still run frontier.
//
// Completed recommendations are cached by content address: a stable
// hash of the catalog epoch, the telemetry epoch and the normalized
// request. Identical requests are answered from memory (X-Cache: hit)
// and concurrent identical requests collapse onto one solver run
// (X-Cache: shared); any catalog mutation or telemetry observation
// re-addresses everything, so stale answers are never served. The
// same cache holds the frontier folds behind the answers, keyed by
// what each fold reads: a fresh SLA term on a known architecture only
// prices a cached fold, and pareto answers, never stored, report that
// fold lookup as X-Cache.
// -cache-entries bounds the cache (0 disables caching entirely),
// -cache-bytes adds an approximate memory budget (0 = unlimited), and
// -cache-ttl ages entries out (0 = no expiry). GET /v1/metrics
// reports the recommendation hit/miss/shared/inflight counters, the
// result and fold occupancy, and both epochs.
//
// Routes (see docs/api.md for request/response shapes):
//
//	GET    /healthz                      liveness
//	GET    /readyz                       readiness (job store open + recovered)
//	GET    /metrics                      Prometheus text exposition
//	GET    /v2/metrics/events            periodic metrics snapshots (SSE,
//	                                     polling fallback; -metrics-interval
//	                                     sets the default cadence)
//	GET    /v1/metrics                   job + result-cache counters, epochs,
//	                                     build info
//	POST   /v1/recommendations           run the brokerage synchronously,
//	                                     listing every option card (at
//	                                     most 1024; more is answer_too_large)
//	POST   /v1/pareto                    cost × uptime frontier
//	GET    /v1/catalog/technologies      list HA mechanisms
//	GET    /v1/catalog/providers         list clouds and rate cards
//	GET    /v1/params                    parameter estimate for provider+class
//	POST   /v1/observations              ingest telemetry
//	GET    /v1/scenarios                 scenario library
//	POST   /v1/scenarios/{name}/recommendation
//	POST   /v2/...                       v2 mirrors of every v1 route (their
//	                                     answers carry the best, min-risk and
//	                                     as-is cards alone), plus:
//	POST   /v2/recommendations/cards     one page of the option listing
//	                                     (?offset=, ?limit=)
//	POST   /v2/jobs                      submit an async recommend/pareto job
//	GET    /v2/jobs                      list jobs + metrics (?state=, ?limit=)
//	GET    /v2/jobs/{id}                 poll one job
//	GET    /v2/jobs/{id}/events          live progress (SSE, polling fallback)
//	DELETE /v2/jobs/{id}                 cancel a queued or running job
//	POST   /v2/recommendations/batch     price many scenarios concurrently
//
// Every error response is RFC 9457 application/problem+json with a
// stable machine-readable "code" member.
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

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/obs"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("brokerd", flag.ContinueOnError)
	var (
		addr            = fs.String("addr", ":8080", "listen address")
		quiet           = fs.Bool("quiet", false, "disable request logging")
		telemetryFile   = fs.String("telemetry-file", "", "path to persist the telemetry database across restarts")
		rateLimit       = fs.Float64("rate-limit", 0, "max requests/second across all routes (0 disables limiting)")
		rateBurst       = fs.Int("rate-burst", 10, "rate limiter burst size")
		clientRateLimit = fs.Float64("rate-limit-per-client", 0, "max requests/second per client IP (0 disables)")
		clientRateBurst = fs.Int("rate-burst-per-client", 10, "per-client rate limiter burst size")
		trustProxy      = fs.Bool("trust-proxy", false, "key per-client limits on the rightmost X-Forwarded-For entry (only behind a trusted proxy)")
		jobTTL          = fs.Duration("job-ttl", 15*time.Minute, "how long finished async jobs stay pollable")
		jobWorkers      = fs.Int("job-workers", 0, "async job worker pool size (0 = GOMAXPROCS)")
		maxQueueWait    = fs.Duration("max-queue-wait", 0, "shed job submissions with 429 + Retry-After when the estimated queue wait exceeds this (0 disables)")
		dataDir         = fs.String("data-dir", "", "directory for the durable job store WAL + snapshots (empty = in-memory jobs)")
		snapInterval    = fs.Duration("snapshot-interval", time.Minute, "how often the job WAL is compacted into a snapshot (with -data-dir)")
		fsync           = fs.Bool("fsync", false, "fsync every job WAL append for power-loss durability (with -data-dir)")
		groupCommit     = fs.Bool("group-commit", false, "fsync durability with concurrent WAL appends coalesced into shared flushes (with -data-dir)")
		cacheEntries    = fs.Int("cache-entries", 1024, "max cached recommendation results and frontier folds (0 disables the result cache)")
		cacheBytes      = fs.Int64("cache-bytes", 0, "approximate memory budget for cached results and folds in bytes (0 = bounded by -cache-entries only)")
		cacheTTL        = fs.Duration("cache-ttl", 0, "drop cached results older than this (0 = no expiry; epochs already invalidate on data changes)")
		ssePing         = fs.Duration("sse-ping", 15*time.Second, "keep-alive comment interval on /v2/jobs/{id}/events streams (0 disables)")
		metricsInterval = fs.Duration("metrics-interval", 2*time.Second, "default snapshot cadence of the /v2/metrics/events stream")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "brokerd ", log.LstdFlags|log.Lmicroseconds)
	}

	cat := catalog.Default()
	store := telemetry.NewStore()
	if *telemetryFile != "" {
		switch err := store.LoadFile(*telemetryFile); {
		case err == nil:
			if logger != nil {
				logger.Printf("loaded telemetry snapshot from %s (%d buckets)", *telemetryFile, len(store.Buckets()))
			}
		case errors.Is(err, os.ErrNotExist):
			if logger != nil {
				logger.Printf("no telemetry snapshot at %s; starting fresh", *telemetryFile)
			}
		default:
			return err
		}
	}
	// One registry spans the engine, the job subsystem and the HTTP
	// layer, so GET /metrics is the whole process in one scrape.
	registry := obs.NewRegistry()
	engineOpts := []broker.EngineOption{
		broker.WithMetricsRegistry(registry),
	}
	if *cacheEntries > 0 {
		engineOpts = append(engineOpts, broker.WithResultCache(reccache.New(reccache.Config{
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
			TTL:        *cacheTTL,
		})))
	}
	engine, err := broker.New(cat, broker.TelemetryParams{
		Store:            store,
		Fallback:         broker.CatalogParams{Catalog: cat},
		MinExposureYears: 1,
	}, engineOpts...)
	if err != nil {
		return err
	}
	opts := []httpapi.ServerOption{
		httpapi.WithJobTTL(*jobTTL),
		httpapi.WithSSEPingInterval(*ssePing),
		httpapi.WithMetricsRegistry(registry),
		httpapi.WithMetricsStreamInterval(*metricsInterval),
	}
	if *rateLimit > 0 {
		opts = append(opts, httpapi.WithRateLimit(*rateLimit, *rateBurst))
	}
	if *clientRateLimit > 0 {
		opts = append(opts, httpapi.WithPerClientRateLimit(*clientRateLimit, *clientRateBurst))
	}
	if *trustProxy {
		opts = append(opts, httpapi.WithTrustedProxy())
	}
	if *jobWorkers > 0 {
		opts = append(opts, httpapi.WithJobWorkers(*jobWorkers))
	}
	if *maxQueueWait > 0 {
		opts = append(opts, httpapi.WithJobMaxQueueWait(*maxQueueWait))
	}
	if *dataDir != "" {
		opts = append(opts, httpapi.WithJobDir(*dataDir), httpapi.WithJobSnapshotInterval(*snapInterval))
		if *fsync {
			opts = append(opts, httpapi.WithJobFsync())
		}
		if *groupCommit {
			opts = append(opts, httpapi.WithJobGroupCommit())
		}
	}
	server, err := httpapi.NewServer(engine, store, logger, opts...)
	if err != nil {
		return err
	}
	defer server.Close()

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           server,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful shutdown on SIGINT/SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		if logger != nil {
			logger.Printf("listening on %s", *addr)
		}
		errCh <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if *telemetryFile != "" {
			if err := store.SaveFile(*telemetryFile); err != nil {
				return err
			}
			if logger != nil {
				logger.Printf("saved telemetry snapshot to %s", *telemetryFile)
			}
		}
		return nil
	}
}
