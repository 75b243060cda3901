package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexmeasures/internal/buildinfo"
	"flexmeasures/internal/obs"
)

// Route indices for the request counters. Fixed at compile time so the
// hot path is an atomic add, not a map lookup under a lock.
const (
	routeOffers = iota
	routeAggregate
	routeSchedule
	routeMeasures
	routeHealthz
	routeMetrics
	routeDebug
	// routeOther is the shared label for every path outside the route
	// table — one bucket, so unknown URLs cannot mint unbounded label
	// values (see Server.ServeHTTP).
	routeOther
	numRoutes
)

// routeNames label the counters in /metrics output, indexed by the
// route constants.
var routeNames = [numRoutes]string{
	routeOffers:    "/v1/offers",
	routeAggregate: "/v1/aggregate",
	routeSchedule:  "/v1/schedule",
	routeMeasures:  "/v1/measures",
	routeHealthz:   "/healthz",
	routeMetrics:   "/metrics",
	routeDebug:     "/debug/traces",
	routeOther:     "other",
}

// metrics holds the server's counters and gauges. Everything is an
// atomic so handlers never serialize on instrumentation.
type metrics struct {
	requests      [numRoutes]atomic.Int64
	rejected      atomic.Int64
	inFlight      atomic.Int64
	ingestRecords atomic.Int64
	ingestBytes   atomic.Int64
	// degradedRejects counts mutations refused because the durable
	// store is degraded (the 503 read-only path).
	degradedRejects atomic.Int64
	// shardIngest[k] counts offers routed to shard k at ingest time
	// (sized to the engine's shard count in NewSharded).
	shardIngest []atomic.Int64
	// encodedReused is the number of groups whose JSON the last
	// streamed schedule copied from the one before.
	encodedReused atomic.Int64
	// latency[route] maps status code (int) to that (route, code)
	// pair's latency histogram, an *obs.Hist over latencyBuckets. A
	// sync.Map because the code set is tiny and write-once: after the
	// first request per pair, observation is one lock-free Load plus
	// atomic adds.
	latency [numRoutes]sync.Map
}

// latencyBuckets are flexd_request_seconds' upper bounds in seconds:
// exponential-ish coverage from 500µs (a cheap in-memory ingest) to
// 60s (a stalled streamed schedule), matching the server's per-write
// timeout ceiling.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// observe records one finished request in its (route, code) histogram,
// creating the histogram on the pair's first request.
func (m *metrics) observe(route, code int, d time.Duration) {
	v, ok := m.latency[route].Load(code)
	if !ok {
		v, _ = m.latency[route].LoadOrStore(code, obs.NewHist(latencyBuckets))
	}
	v.(*obs.Hist).Observe(d)
}

// handleMetrics renders the counters in the Prometheus text exposition
// format (hand-rolled: the format is three line shapes, not worth a
// dependency).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	write := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	write("# HELP flexd_build_info Build metadata; the value is always 1.\n")
	write("# TYPE flexd_build_info gauge\n")
	write("flexd_build_info{version=%q,go_version=%q} 1\n", buildinfo.Version, runtime.Version())

	write("# HELP flexd_requests_total Requests served, by route.\n")
	write("# TYPE flexd_requests_total counter\n")
	for i, name := range routeNames {
		write("flexd_requests_total{path=%q} %d\n", name, s.m.requests[i].Load())
	}
	write("# HELP flexd_requests_rejected_total Requests rejected by the max-in-flight gate.\n")
	write("# TYPE flexd_requests_rejected_total counter\n")
	write("flexd_requests_rejected_total %d\n", s.m.rejected.Load())
	write("# HELP flexd_requests_in_flight Requests currently being served.\n")
	write("# TYPE flexd_requests_in_flight gauge\n")
	write("flexd_requests_in_flight %d\n", s.m.inFlight.Load())

	// Request latency histograms, one series set per (route, status
	// code) pair that has served at least one request. Client-side
	// percentiles (flexsim's report) can be compared against these
	// server-side ones to isolate network and queueing time.
	write("# HELP flexd_request_seconds Request latency in seconds, by route and status code.\n")
	write("# TYPE flexd_request_seconds histogram\n")
	for i, name := range routeNames {
		var codes []int
		s.m.latency[i].Range(func(k, _ any) bool {
			codes = append(codes, k.(int))
			return true
		})
		sort.Ints(codes)
		for _, code := range codes {
			v, _ := s.m.latency[i].Load(code)
			counts, sum, total := v.(*obs.Hist).Snapshot()
			labels := fmt.Sprintf("path=%q,code=\"%d\",", name, code)
			writeHistogram(write, "flexd_request_seconds", labels, latencyBuckets, counts, sum, total)
		}
	}

	write("# HELP flexd_ingest_records_total Flex-offers ingested.\n")
	write("# TYPE flexd_ingest_records_total counter\n")
	write("flexd_ingest_records_total %d\n", s.m.ingestRecords.Load())
	write("# HELP flexd_ingest_bytes_total NDJSON bytes read by the ingest endpoint.\n")
	write("# TYPE flexd_ingest_bytes_total counter\n")
	write("flexd_ingest_bytes_total %d\n", s.m.ingestBytes.Load())

	workers, busy := s.se.PoolStats()
	write("# HELP flexd_pool_workers Size of the engine's persistent worker pool (summed across shards).\n")
	write("# TYPE flexd_pool_workers gauge\n")
	write("flexd_pool_workers %d\n", workers)
	write("# HELP flexd_pool_busy Pool workers currently executing a task (summed across shards).\n")
	write("# TYPE flexd_pool_busy gauge\n")
	write("flexd_pool_busy %d\n", busy)

	write("# HELP flexd_offers_stored Flex-offers in the store.\n")
	write("# TYPE flexd_offers_stored gauge\n")
	write("flexd_offers_stored %d\n", s.stores.Len())

	degraded := 0
	if s.stores.Err() != nil {
		degraded = 1
	}
	write("# HELP flexd_wal_degraded 1 when the durable store has failed and the server is read-only.\n")
	write("# TYPE flexd_wal_degraded gauge\n")
	write("flexd_wal_degraded %d\n", degraded)
	write("# HELP flexd_degraded_rejects_total Mutations refused because the store is degraded.\n")
	write("# TYPE flexd_degraded_rejects_total counter\n")
	write("flexd_degraded_rejects_total %d\n", s.m.degradedRejects.Load())

	// Per-shard breakdowns of the totals above, labeled by shard index.
	lens := s.stores.ShardLens()
	write("# HELP flexd_shard_offers_stored Flex-offers in the store, by engine shard.\n")
	write("# TYPE flexd_shard_offers_stored gauge\n")
	for k, n := range lens {
		write("flexd_shard_offers_stored{shard=\"%d\"} %d\n", k, n)
	}
	write("# HELP flexd_shard_ingest_records_total Flex-offers routed at ingest, by engine shard.\n")
	write("# TYPE flexd_shard_ingest_records_total counter\n")
	for k := range s.m.shardIngest {
		write("flexd_shard_ingest_records_total{shard=\"%d\"} %d\n", k, s.m.shardIngest[k].Load())
	}
	write("# HELP flexd_shard_pool_workers Size of one shard engine's worker pool.\n")
	write("# TYPE flexd_shard_pool_workers gauge\n")
	for k := 0; k < s.se.Shards(); k++ {
		w, _ := s.se.ShardPoolStats(k)
		write("flexd_shard_pool_workers{shard=\"%d\"} %d\n", k, w)
	}
	write("# HELP flexd_shard_pool_busy Pool workers currently executing a task, by engine shard.\n")
	write("# TYPE flexd_shard_pool_busy gauge\n")
	for k := 0; k < s.se.Shards(); k++ {
		_, b := s.se.ShardPoolStats(k)
		write("flexd_shard_pool_busy{shard=\"%d\"} %d\n", k, b)
	}

	// Pipeline stage latency from the tracer's metrics sink (empty —
	// HELP/TYPE lines only — until a traced request runs a stage).
	// Shard-scoped stages (the scatter-gather fan-out) carry a shard
	// label; request-scoped ones don't.
	series := s.obsM.Series()
	write("# HELP flexd_stage_seconds Pipeline stage latency in seconds, by stage (and engine shard for shard-scoped stages).\n")
	write("# TYPE flexd_stage_seconds histogram\n")
	for _, ss := range series {
		labels := fmt.Sprintf("stage=%q,", ss.Stage)
		if ss.Shard >= 0 {
			labels = fmt.Sprintf("stage=%q,shard=\"%d\",", ss.Stage, ss.Shard)
		}
		writeHistogram(write, "flexd_stage_seconds", labels, obs.StageBuckets, ss.Counts, ss.Sum, ss.Total)
	}

	// Dedicated views of the two stages operators alert on most, summed
	// across shards so a dashboard needs no label arithmetic.
	for _, v := range []struct{ name, stage, help string }{
		{"flexd_pool_queue_seconds", obs.StagePoolQueue,
			"Worker-pool task queue wait (enqueue to dequeue) in seconds, summed across shards."},
		{"flexd_wal_fsync_seconds", obs.StageWALFsync,
			"WAL fsync latency in seconds, request-path and background syncs combined."},
	} {
		counts := make([]int64, len(obs.StageBuckets)+1)
		var sum float64
		var total int64
		for _, ss := range series {
			if ss.Stage != v.stage {
				continue
			}
			for j, c := range ss.Counts {
				counts[j] += c
			}
			sum += ss.Sum
			total += ss.Total
		}
		write("# HELP %s %s\n", v.name, v.help)
		write("# TYPE %s histogram\n", v.name)
		writeHistogram(write, v.name, "", obs.StageBuckets, counts, sum, total)
	}

	write("# HELP flexd_offers_ingested_total Offers ingested by traced requests.\n")
	write("# TYPE flexd_offers_ingested_total counter\n")
	write("flexd_offers_ingested_total %d\n", s.obsM.Offers())
	write("# HELP flexd_groups_total Groups formed by traced pipeline runs.\n")
	write("# TYPE flexd_groups_total counter\n")
	write("flexd_groups_total %d\n", s.obsM.Groups())

	// Incremental-scheduling cache effectiveness. All zeros when the
	// engine runs without WithIncremental; the dirty/reused gauges
	// describe the most recent /v1/schedule run.
	st := s.se.IncrementalStats()
	write("# HELP flexd_sched_cache_hits_total Groups whose cached aggregate was reused across all schedule runs.\n")
	write("# TYPE flexd_sched_cache_hits_total counter\n")
	write("flexd_sched_cache_hits_total %d\n", st.Hits)
	write("# HELP flexd_sched_cache_misses_total Groups re-aggregated because their membership changed.\n")
	write("# TYPE flexd_sched_cache_misses_total counter\n")
	write("flexd_sched_cache_misses_total %d\n", st.Misses)
	write("# HELP flexd_sched_incremental_runs_total Schedule runs served by the incremental pipeline.\n")
	write("# TYPE flexd_sched_incremental_runs_total counter\n")
	write("flexd_sched_incremental_runs_total %d\n", st.Runs)
	write("# HELP flexd_sched_full_recompute_total Incremental runs that fell back to placing every group (cold cache, changed target, or dirty fraction over threshold).\n")
	write("# TYPE flexd_sched_full_recompute_total counter\n")
	write("flexd_sched_full_recompute_total %d\n", st.FullRuns)
	write("# HELP flexd_sched_layouts_reused_total Members of re-aggregated groups whose layout was copied from the previous run's aggregates.\n")
	write("# TYPE flexd_sched_layouts_reused_total counter\n")
	write("flexd_sched_layouts_reused_total %d\n", st.LayoutsReused)
	write("# HELP flexd_sched_layouts_built_total Members of re-aggregated groups whose layout was read from the offer.\n")
	write("# TYPE flexd_sched_layouts_built_total counter\n")
	write("flexd_sched_layouts_built_total %d\n", st.LayoutsBuilt)
	write("# HELP flexd_sched_dirty_groups Groups re-aggregated by the most recent schedule run.\n")
	write("# TYPE flexd_sched_dirty_groups gauge\n")
	write("flexd_sched_dirty_groups %d\n", st.LastDirty)
	write("# HELP flexd_sched_reused_placements Groups whose placement was replayed unchanged by the most recent schedule run.\n")
	write("# TYPE flexd_sched_reused_placements gauge\n")
	write("flexd_sched_reused_placements %d\n", st.LastReused)
	write("# HELP flexd_sched_order_delta Entries the most recent schedule run re-sorted to update the cached grouping order (removed plus added).\n")
	write("# TYPE flexd_sched_order_delta gauge\n")
	write("flexd_sched_order_delta %d\n", s.se.OrderDelta())
	write("# HELP flexd_sched_encoded_groups_reused Groups whose response JSON the most recent schedule copied from the previous response instead of encoding.\n")
	write("# TYPE flexd_sched_encoded_groups_reused gauge\n")
	write("flexd_sched_encoded_groups_reused %d\n", s.m.encodedReused.Load())
	write("# HELP flexd_sched_pending_mutations Store mutations since the last successful schedule run.\n")
	write("# TYPE flexd_sched_pending_mutations gauge\n")
	write("flexd_sched_pending_mutations %d\n", s.tracker.Pending())
}

// writeHistogram renders one histogram series over the bucket upper
// bounds from a non-cumulative bucket snapshot (see obs.Hist.Snapshot),
// cumulating at render time. labels is the rendered label prefix
// including its trailing comma, or empty.
func writeHistogram(write func(string, ...any), name, labels string, bounds []float64, counts []int64, sum float64, total int64) {
	var cum int64
	for j, le := range bounds {
		cum += counts[j]
		write("%s_bucket{%sle=%q} %d\n", name, labels, strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	cum += counts[len(bounds)]
	write("%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	if labels == "" {
		write("%s_sum %g\n", name, sum)
		write("%s_count %d\n", name, total)
		return
	}
	write("%s_sum{%s} %g\n", name, strings.TrimSuffix(labels, ","), sum)
	write("%s_count{%s} %d\n", name, strings.TrimSuffix(labels, ","), total)
}
