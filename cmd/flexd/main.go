// Command flexd serves the flex-offer engine over HTTP: a long-running
// service that ingests NDJSON flex-offer streams with the decode work
// sharded across the engine's persistent worker pool, and exposes the
// paper's Scenario-1 chain — aggregate, schedule, disaggregate — plus
// the eight flexibility measures as endpoints.
//
// With -shards N the population is partitioned across N engine shards
// (routed by offer zone, then ID hash, then round-robin; see package
// shard) and /v1/schedule runs scatter-gather across them. The response
// bytes are independent of N: the merge is deterministic and the
// pipeline bit-identical to one shard, so shards only change
// where the work runs.
//
// Scheduling is incremental by default (-incremental): the engine
// content-addresses each group's aggregate and replays the previous
// run's placements for groups the churn since the last /v1/schedule
// did not touch, so steady-state runs cost O(changed groups) instead
// of O(fleet). Output is bit-identical to a full recompute — the
// equivalence is property-tested — so the flag exists only as an
// escape hatch. -inc-fallback tunes the dirty-group fraction above
// which a run gives up on replay and places everything fresh (cost
// only; never output). Cache effectiveness is observable on /metrics
// as the flexd_sched_* families.
//
// With -data-dir the offer store is durable: every mutation is
// appended to a write-ahead log (see package persist) before it is
// applied, and a restart replays the log — parallel decode across the
// worker pool — back into a bit-identical store. -fsync picks the
// durability/throughput trade-off. Without -data-dir the store is
// in-memory, as before. If the WAL fails mid-flight (disk full,
// yanked volume), flexd degrades to read-only: ingest answers 503
// with a Retry-After while schedule/measures keep serving.
//
// Usage:
//
//	flexd                          # serve on :8080, one worker per CPU
//	flexd -addr :9000 -workers 8   # pin address and pool size
//	flexd -shards 4                # four engine shards, scatter-gather
//	flexd -cap 500                 # default soft peak cap for /v1/schedule
//	flexd -incremental=false       # full recompute on every /v1/schedule
//	flexd -data-dir /var/lib/flexd # durable store (WAL + snapshots)
//	flexd -data-dir d -fsync off   # durable but page-cache-paced
//
// Endpoints:
//
//	POST   /v1/offers     ingest NDJSON offers (flexgen -format ndjson)
//	GET    /v1/offers     stored offer count
//	DELETE /v1/offers     reset the store
//	POST   /v1/aggregate  aggregate stored offers (?est,tft,max-group,mode)
//	POST   /v1/schedule   full pipeline, streamed (?horizon,target,cap,est,tft,max-group)
//	GET    /v1/measures   the paper's measures (?norm=l1|l2|linf)
//	GET    /healthz       liveness probe (503 once draining)
//	GET    /metrics       Prometheus text metrics (per-shard labels)
//	GET    /debug/traces  recent request traces with per-stage spans (?n)
//
// Every request is traced end to end: stage spans (decode, sort, pack,
// per-shard aggregation, placement, disaggregation, WAL append/fsync,
// pool queue-wait) land in /debug/traces and the
// flexd_stage_seconds{stage,shard} histograms, requests log one
// structured JSON line each (WARN with the span tree past
// -slow-request), and -debug-addr opens a side listener with
// net/http/pprof. Tracing costs one atomic slot claim per span;
// -trace-ring -1 switches it off entirely.
//
// A /v1/schedule response is byte-identical to `flexctl schedule
// -pipeline -json` over the same offers and parameters — the service
// and the CLI render through the same wire builder, and the e2e tests
// in cmd/flexctl pin the equality for shard counts 1 and 4.
//
// On SIGINT/SIGTERM flexd drains: /healthz flips to 503 so load
// balancers stop routing, the listener stops accepting, in-flight
// requests get -drain to finish, then the engine shards shut down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/buildinfo"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/server"
	"flexmeasures/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flexd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flexd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "per-shard worker-pool size (0: one per CPU, 1: serial)")
	shards := fs.Int("shards", 1, "engine shard count; /v1/schedule scatter-gathers across them")
	safe := fs.Bool("safe", true, "safe aggregation: tighten constituents so every schedule disaggregates")
	cap := fs.Int64("cap", 0, "default soft peak cap for scheduling (0: uncapped; per-request ?cap overrides)")
	incremental := fs.Bool("incremental", true, "incremental scheduling: cache aggregates and replay placements for unchanged groups (bit-identical output)")
	incFallback := fs.Float64("inc-fallback", 0, "dirty-group fraction above which an incremental run places everything fresh (0: default 0.5, 1: never fall back)")
	inflight := fs.Int("max-inflight", 0, "concurrent expensive requests before 429 (0: 4x workers)")
	maxBody := fs.Int64("max-body", 0, "ingest request body limit in bytes (0: 1 GiB)")
	block := fs.Int("block", 0, "ingest decode block size in bytes (0: 1 MiB)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown deadline for in-flight requests")
	dataDir := fs.String("data-dir", "", "durable store directory (empty: in-memory, lost on restart)")
	fsync := fs.String("fsync", "always", `WAL fsync policy: "always", "interval" or "off"`)
	fsyncEvery := fs.Duration("fsync-interval", 100*time.Millisecond, "sync period under -fsync interval")
	segBytes := fs.Int64("wal-segment", 0, "WAL segment rotation size in bytes (0: 64 MiB)")
	snapEvery := fs.Int("snapshot-every", 0, "records between snapshot+compaction (0: 100000, negative: never)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle timeout")
	writeTimeout := fs.Duration("write-timeout", time.Minute, "per-write stall timeout for responses (0: none)")
	traceRing := fs.Int("trace-ring", 0, "completed traces retained for /debug/traces (0: 64, negative: tracing off)")
	slowReq := fs.Duration("slow-request", time.Second, "log requests at least this slow at WARN with their span tree (0: never)")
	logLevel := fs.String("log-level", "info", `structured log level: "debug", "info", "warn" or "error"`)
	debugAddr := fs.String("debug-addr", "", "extra listener for net/http/pprof and /debug/traces (empty: off)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.String("flexd"))
		return nil
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative (0 means one per CPU), got %d", *workers)
	}
	if *cap < 0 {
		return fmt.Errorf("-cap must be non-negative (0 means uncapped), got %d", *cap)
	}
	if *incFallback < 0 || *incFallback > 1 {
		return fmt.Errorf("-inc-fallback must be in [0, 1], got %g", *incFallback)
	}
	if *inflight < 0 {
		return fmt.Errorf("-max-inflight must be non-negative (0 means 4x workers), got %d", *inflight)
	}
	if *maxBody < 0 || *block < 0 {
		return fmt.Errorf("-max-body and -block must be non-negative")
	}
	policy, err := persist.ParseFsyncPolicy(*fsync)
	if err != nil {
		return err
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// The tracer is the process-wide observability hub: per-request
	// traces land in its ring (served by /debug/traces) and every stage
	// span feeds its metrics sink, which /metrics renders as the
	// flexd_stage_seconds families. The WAL shares the same sink so
	// background fsyncs are counted alongside request-path ones.
	var tracer *obs.Tracer
	if *traceRing >= 0 {
		tracer = obs.NewTracer(*traceRing, 0)
	}

	se := flex.NewSharded(*shards,
		flex.WithWorkers(*workers),
		flex.WithSafe(*safe),
		flex.WithPeakCap(*cap),
		flex.WithIncremental(*incremental),
		flex.WithIncrementalThreshold(*incFallback),
	)
	defer se.Close()

	var store persist.Store
	if *dataDir != "" {
		wal, err := persist.OpenWAL(persist.Options{
			Dir:           *dataDir,
			Router:        shard.Router{Shards: se.Shards()},
			Fsync:         policy,
			FsyncInterval: *fsyncEvery,
			SegmentBytes:  *segBytes,
			SnapshotEvery: *snapEvery,
			Executor:      se.Executor(),
			Metrics:       tracer.Metrics(),
		})
		if err != nil {
			return err
		}
		// Closed after HTTP shutdown (below) and before the engines: no
		// request can be mutating it, and it never outlives the pools
		// its replay borrowed.
		defer wal.Close()
		st := wal.Stats()
		logger.Info("replayed WAL",
			"dir", *dataDir,
			"snapshot_records", st.SnapshotRecords,
			"log_records", st.Records,
			"segments", st.Segments,
			"bytes", st.Bytes,
			"torn_bytes_dropped", st.DroppedBytes,
			"duration", st.Duration.Round(time.Millisecond))
		store = wal
	}

	srv := server.NewSharded(se, server.Options{
		MaxInFlight:        *inflight,
		MaxBodyBytes:       *maxBody,
		IngestBlockBytes:   *block,
		Store:              store,
		StreamWriteTimeout: *writeTimeout,
		Tracer:             tracer,
		Logger:             logger,
		SlowRequest:        *slowReq,
	})

	// The debug listener is a separate address on purpose: pprof and
	// raw traces stay off the service port, so exposing :8080 through a
	// load balancer never exposes profiling.
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(srv),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		defer dbg.Close()
		logger.Info("debug listener on", "addr", *debugAddr)
	}

	// WriteTimeout is safe for streamed /v1/schedule bodies because the
	// handler pushes the deadline forward on every write (see
	// server.Options.StreamWriteTimeout): it bounds a stalled client,
	// not the response size.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       *idleTimeout,
		WriteTimeout:      *writeTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	poolWorkers, _ := se.PoolStats()
	logger.Info("serving",
		"addr", *addr, "shards", se.Shards(), "pool_workers", poolWorkers,
		"version", buildinfo.Version)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: advertise unhealthiness first so load balancers stop
	// sending traffic, then stop accepting and let in-flight requests
	// finish within the deadline. The engines close last (deferred),
	// after no request can still be using their pools.
	srv.MarkDraining()
	logger.Info("draining", "deadline", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained")
	return nil
}

// debugMux builds the -debug-addr handler: the standard pprof pages
// plus the service's own /debug/traces, so a profiling session and the
// trace ring are reachable without touching the service port.
func debugMux(srv http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/traces", srv)
	return mux
}
