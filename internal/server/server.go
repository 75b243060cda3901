package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/inc"
	"flexmeasures/internal/ingest"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/pool"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// Options configures a Server.
type Options struct {
	// MaxInFlight gates the expensive endpoints (ingest, aggregate,
	// schedule, measures): at most this many such requests run
	// concurrently, and excess requests are rejected immediately with
	// 429 so a traffic spike degrades into fast rejections instead of
	// an unbounded pile-up on the pools. Values below 1 pick 4× the
	// engine's total worker count (summed across shards).
	MaxInFlight int
	// MaxBodyBytes caps an ingest request's body. Values below 1 pick
	// 1 GiB.
	MaxBodyBytes int64
	// IngestBlockBytes is the sharded decoder's block size (see
	// ingest.Params.BlockBytes). Values below 1 pick the decoder's
	// default. Blocks are also the ingest backpressure unit: a request
	// body is read only as fast as blocks are decoded.
	IngestBlockBytes int
	// Store is the offer store behind the ingest endpoints. nil means a
	// fresh in-memory store; flexd -data-dir injects the WAL-backed one.
	// Its shard count must match the engine's. The store is borrowed,
	// not owned: Close it yourself after the HTTP server shuts down.
	Store persist.Store
	// StreamWriteTimeout, when positive, pushes the connection's write
	// deadline this far into the future before every response write on
	// the gated endpoints. http.Server.WriteTimeout starts when the
	// request headers arrive, so alone it would cut off a streamed
	// /v1/schedule body mid-flight — or kill the response of a slow
	// ingest upload or long computation. The per-write extension turns
	// it into a stall bound instead: any response that keeps moving is
	// safe regardless of size or how long the handler ran first.
	StreamWriteTimeout time.Duration
	// Tracer, when non-nil, enables per-request pipeline tracing: every
	// API request gets a trace (ID taken from X-Request-Id/traceparent
	// or generated) whose stage spans surface on GET /debug/traces and
	// in the flexd_stage_seconds metric families. nil disables tracing —
	// the pipeline's obs calls then cost one nil check each.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives one structured line per API
	// request: trace ID, method, path, status, duration and the
	// offer/group counts the request touched. /metrics and /healthz log
	// at Debug so a scraper doesn't drown the stream.
	Logger *slog.Logger
	// SlowRequest, when positive, promotes the log line of any request
	// at least this slow to WARN with the full span tree inlined — the
	// "why was that one slow" answer without leaving the log stream.
	SlowRequest time.Duration
}

// Server is the flexd HTTP service: a long-lived sharded engine, N
// copy-on-write offer stores fed by sharded NDJSON ingest and routed
// by the shard router (zone → ID hash → round-robin), and the paper's
// aggregate/schedule/measure operations as scatter-gather endpoints.
// It implements http.Handler; create one with NewSharded.
//
// Routes:
//
//	POST   /v1/offers     NDJSON ingest (sharded decode, ID dedup, shard routing, ?mode=collect)
//	GET    /v1/offers     store size
//	DELETE /v1/offers     reset the store
//	POST   /v1/aggregate  aggregate stored offers (?est,tft,max-group,mode)
//	POST   /v1/schedule   full pipeline, streamed response (?horizon,target,cap,est,tft,max-group)
//	GET    /v1/measures   the paper's eight measures (?norm=l1|l2|linf)
//	GET    /healthz       liveness (503 while draining)
//	GET    /metrics       Prometheus text metrics (per-shard labels)
//
// The schedule response bytes are independent of the shard count: the
// scatter-gather pipeline is bit-identical to one shard, so
// `-shards 8` and `-shards 1` — and `flexctl schedule -pipeline -json`
// — produce the same body for the same stored offers.
type Server struct {
	se   *flex.Engine
	opts Options
	gate chan struct{}
	m    metrics

	// stores is the offer store behind ingest; its shard count mirrors
	// the engine's so snapshots feed the Routed endpoints directly.
	// Behind the persist.Store seam it is either purely in-memory or
	// WAL-backed — the handlers cannot tell, except that a degraded
	// durable store refuses mutations (the read-only path below).
	stores persist.Store

	// draining flips when the process is shutting down: /healthz turns
	// 503 so load balancers stop routing here while in-flight requests
	// finish.
	draining atomic.Bool

	// tracker counts store mutations against the last schedule run —
	// the dirty tracker behind flexd_sched_pending_mutations. Ingest
	// and reset feed it; a successful schedule marks it absorbed.
	tracker inc.Tracker

	// enc is the last streamed schedule body, indexed by group so the
	// next schedule copies the JSON of every group whose
	// disaggregation the incremental pipeline carried over (see
	// streamSchedule). A schedule takes it under encMu, encodes and
	// writes without the lock, and swaps its own in at the end, so a
	// slow client never blocks another schedule.
	encMu sync.Mutex
	enc   *encodedGroups

	// tracer/logger are the observability hooks from Options; obsM is
	// the stage-metrics sink — the tracer's when one is installed, a
	// fresh empty one otherwise, so /metrics always renders the stage
	// families (with zero samples) and never nil-checks.
	tracer *obs.Tracer
	logger *slog.Logger
	obsM   *obs.Metrics

	// known holds the registered route paths. ServeHTTP normalises any
	// other path to the shared "other" metrics label before 404ing, so
	// a scanner walking random URLs cannot mint unbounded label values.
	known map[string]bool

	mux *http.ServeMux
}

// NewSharded returns a Server serving an engine: ingest routes offers
// across per-shard stores (one per engine shard) and /v1/schedule runs
// scatter-gather over them. The engine is borrowed, not owned: Close it yourself
// after the HTTP server shuts down.
func NewSharded(se *flex.Engine, opts Options) *Server {
	if opts.MaxInFlight < 1 {
		workers, _ := se.PoolStats()
		opts.MaxInFlight = 4 * workers
	}
	if opts.MaxBodyBytes < 1 {
		opts.MaxBodyBytes = 1 << 30
	}
	if opts.Store == nil {
		opts.Store = persist.NewMemory(shard.Router{Shards: se.Shards()})
	}
	if opts.Store.Shards() != se.Shards() {
		panic(fmt.Sprintf("server: store has %d shards, engine has %d",
			opts.Store.Shards(), se.Shards()))
	}
	s := &Server{
		se:     se,
		opts:   opts,
		gate:   make(chan struct{}, opts.MaxInFlight),
		stores: opts.Store,
		tracer: opts.Tracer,
		logger: opts.Logger,
		obsM:   opts.Tracer.Metrics(),
		mux:    http.NewServeMux(),
	}
	if s.obsM == nil {
		s.obsM = obs.NewMetrics()
	}
	s.m.shardIngest = make([]atomic.Int64, se.Shards())
	s.mux.HandleFunc("POST /v1/offers", s.route(routeOffers, s.gated(s.handleIngest)))
	s.mux.HandleFunc("GET /v1/offers", s.route(routeOffers, s.handleStoreSize))
	s.mux.HandleFunc("DELETE /v1/offers", s.route(routeOffers, s.handleReset))
	s.mux.HandleFunc("POST /v1/aggregate", s.route(routeAggregate, s.gated(s.handleAggregate)))
	s.mux.HandleFunc("POST /v1/schedule", s.route(routeSchedule, s.gated(s.handleSchedule)))
	s.mux.HandleFunc("GET /v1/measures", s.route(routeMeasures, s.gated(s.handleMeasures)))
	s.mux.HandleFunc("GET /healthz", s.route(routeHealthz, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.route(routeMetrics, s.handleMetrics))
	s.mux.HandleFunc("GET /debug/traces", s.route(routeDebug, s.handleDebugTraces))
	s.known = make(map[string]bool, numRoutes)
	for i, name := range routeNames {
		if i != routeOther {
			s.known[name] = true
		}
	}
	return s
}

// MarkDraining flips /healthz to 503 — flexd calls this on SIGTERM so
// load balancers drain the instance while http.Server.Shutdown lets
// in-flight requests finish. Idempotent; there is no way back.
func (s *Server) MarkDraining() { s.draining.Store(true) }

// ServeHTTP dispatches to the route table. Paths outside it short-
// circuit to a 404 counted under the shared "other" label, so a
// scanner walking random URLs cannot mint unbounded metric labels;
// known paths go through the mux, which keeps its 405 behavior for
// wrong-method requests.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.inFlight.Add(1)
	defer s.m.inFlight.Add(-1)
	if !s.known[r.URL.Path] {
		s.route(routeOther, s.handleNotFound)(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "not found", nil)
}

// route wraps a handler with its request counter, latency histogram
// and — for the API routes — the request trace: the handler runs
// against a status-capturing writer with the trace in its context, the
// elapsed time lands in the (route, status code) histogram, the trace
// finishes into the tracer's ring, and the request logs one structured
// line.
func (s *Server) route(idx int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.requests[idx].Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var tr *obs.Trace
		if s.tracer != nil && tracedRoute(idx) {
			tr = s.tracer.Start(requestID(r))
			r = r.WithContext(obs.NewContext(r.Context(), tr))
			// Echo the ID before the handler writes the header, so
			// the caller can correlate even a failed response with
			// /debug/traces and the server log.
			sw.Header().Set("X-Request-Id", tr.ID())
		}
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		s.m.observe(idx, sw.code, d)
		var td obs.TraceData
		if tr != nil {
			td = tr.Finish()
		}
		s.logRequest(r, idx, sw.code, d, tr != nil, td)
	}
}

// tracedRoute reports whether a route's requests get traces. The
// observability endpoints themselves don't: a scraper polling /metrics
// every few seconds would evict every interesting trace from the ring.
func tracedRoute(idx int) bool {
	switch idx {
	case routeMetrics, routeHealthz, routeDebug, routeOther:
		return false
	}
	return true
}

// requestID extracts the caller-supplied request ID: X-Request-Id
// verbatim, else the trace-id field of a W3C traceparent header, else
// empty (the tracer then generates one).
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	if tp := r.Header.Get("traceparent"); tp != "" {
		// version-traceid-parentid-flags; keep just the trace ID.
		if i := strings.IndexByte(tp, '-'); i >= 0 {
			rest := tp[i+1:]
			if j := strings.IndexByte(rest, '-'); j > 0 {
				return rest[:j]
			}
			if rest != "" {
				return rest
			}
		}
	}
	return ""
}

// logRequest emits the per-request structured log line. The
// observability endpoints log at Debug so a scraper doesn't drown the
// stream; a traced request at least SlowRequest slow logs at WARN with
// the span tree inlined.
func (s *Server) logRequest(r *http.Request, idx, code int, d time.Duration, traced bool, td obs.TraceData) {
	if s.logger == nil {
		return
	}
	attrs := []any{
		slog.String("method", r.Method),
		slog.String("path", routeNames[idx]),
		slog.Int("status", code),
		slog.Duration("duration", d),
	}
	if traced {
		attrs = append(attrs,
			slog.String("trace_id", td.ID),
			slog.Int64("offers", td.Offers),
			slog.Int64("groups", td.Groups),
		)
	}
	switch {
	case idx == routeMetrics || idx == routeHealthz || idx == routeDebug:
		s.logger.Debug("request", attrs...)
	case traced && s.opts.SlowRequest > 0 && d >= s.opts.SlowRequest:
		attrs = append(attrs, slog.String("spans", td.Tree()))
		s.logger.Warn("slow request", attrs...)
	default:
		s.logger.Info("request", attrs...)
	}
}

// handleDebugTraces serves the tracer's retained traces, newest first,
// as a JSON array. ?n caps the count; without a tracer the ring is
// just empty.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	n, err := qInt(r, "n", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	tds := s.tracer.Last(n)
	if tds == nil {
		tds = []obs.TraceData{}
	}
	writeJSON(w, http.StatusOK, tds)
}

// statusWriter records the response status code for the latency
// histogram labels. It forwards Flush (the streamed /v1/schedule body
// flushes in 32 KiB chunks) and exposes Unwrap so
// http.ResponseController can reach the connection underneath.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(interface{ Flush() }); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// gated wraps a handler with the max-in-flight gate: acquisition never
// blocks, so under overload the server answers 429 immediately instead
// of queueing work it cannot start.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
			if s.opts.StreamWriteTimeout > 0 {
				w = &deadlineWriter{ResponseWriter: w, rc: http.NewResponseController(w), d: s.opts.StreamWriteTimeout}
			}
			h(w, r)
		default:
			s.m.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("server busy: %d requests in flight", s.opts.MaxInFlight), nil)
		}
	}
}

// snapshot returns the stored offers flattened back into global ingest
// order — the view a single unsharded store would hold. Kept for unit
// tests and the single-store mental model; the handlers consume the
// routed snapshot directly.
func (s *Server) snapshot() []*flexoffer.FlexOffer {
	return shard.Flatten(s.stores.Snapshot())
}

// store merges decoded offers into the sharded store (see
// shard.Stores.Add for the routing and last-write-wins dedup rules),
// recording per-shard routing counts in the metrics. It reports how
// many records replaced an existing offer and the store's total size
// afterwards. A non-nil error means the durable layer refused the
// batch and nothing was applied.
func (s *Server) store(ctx context.Context, offers []*flexoffer.FlexOffer) (replaced, stored int, err error) {
	muts, stored, err := s.stores.Add(ctx, offers)
	if err != nil {
		return 0, stored, err
	}
	var routed []int
	replaced, routed = shard.Summarize(muts, s.se.Shards())
	for k, c := range routed {
		if c > 0 {
			s.m.shardIngest[k].Add(int64(c))
		}
	}
	s.tracker.Note(len(muts))
	return replaced, stored, nil
}

// degraded reports whether the store's durable layer has failed. The
// server then serves read-only: ingest and reset answer 503 with a
// Retry-After so clients back off (and flexctl push retries elsewhere),
// while schedule/aggregate/measures keep working off the intact
// in-memory snapshot.
func (s *Server) degraded() bool { return s.stores.Err() != nil }

// writeDegraded answers a mutation attempt on a degraded store.
func (s *Server) writeDegraded(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "30")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("store is read-only (degraded): %v", err), nil)
}

// routedSnapshot returns the per-shard snapshot plus the total offer
// count (summed from the snapshot itself, so the two cannot be torn
// apart by a concurrent ingest).
func (s *Server) routedSnapshot() ([][]flex.RoutedOffer, int) {
	parts := s.stores.Snapshot()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	return parts, total
}

// handleIngest streams NDJSON offers from the request body through the
// sharded decoder into the store. The body is consumed block by block —
// decode speed is the read speed, which is the backpressure a slow
// pool exerts on the client's connection. Offers are deduplicated by ID
// (last write wins; see shard.Stores.Add), routed to their shard by
// zone/ID, and the replacement count reported in the response.
// ?mode=collect switches to collect-all error reporting; any record
// failure rejects the whole request, so a 2xx means every record was
// stored.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if err := s.stores.Err(); err != nil {
		// Refuse before reading the body: a degraded store cannot
		// accept the batch, so don't make the client upload it first.
		s.m.degradedRejects.Add(1)
		s.writeDegraded(w, err)
		return
	}
	mode, err := modeFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)}
	offers, err := ingest.DecodeNDJSON(r.Context(), body, ingest.Params{
		ErrorMode:  mode,
		Pool:       s.se.Executor(),
		BlockBytes: s.opts.IngestBlockBytes,
	})
	s.m.ingestBytes.Add(body.n)
	if err != nil {
		var (
			re  *ingest.RecordError
			res ingest.RecordErrors
			mbe *http.MaxBytesError
		)
		switch {
		case errors.As(err, &mbe):
			writeError(w, http.StatusRequestEntityTooLarge, err.Error(), nil)
		case errors.As(err, &res):
			writeError(w, http.StatusBadRequest, err.Error(), recordInfos(res))
		case errors.As(err, &re):
			writeError(w, http.StatusBadRequest, err.Error(), recordInfos(ingest.RecordErrors{re}))
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client went away; nothing useful to write.
		default:
			writeError(w, http.StatusBadRequest, err.Error(), nil)
		}
		return
	}
	replaced, stored, err := s.store(r.Context(), offers)
	if err != nil {
		s.m.degradedRejects.Add(1)
		s.writeDegraded(w, err)
		return
	}
	s.m.ingestRecords.Add(int64(len(offers)))
	obs.AddOffers(r.Context(), len(offers))
	writeJSON(w, http.StatusOK, &IngestResponse{Ingested: len(offers), Replaced: replaced, Stored: stored})
}

func recordInfos(res ingest.RecordErrors) []RecordErrorInfo {
	out := make([]RecordErrorInfo, len(res))
	for i, e := range res {
		out[i] = RecordErrorInfo{Record: e.Record, Line: e.Line, Error: e.Err.Error()}
	}
	return out
}

func (s *Server) handleStoreSize(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &StoreResponse{Stored: s.stores.Len()})
}

// handleReset empties the store. For a WAL-backed store this is
// durable — the log is rewritten so deleted offers cannot resurrect on
// the next boot (see WALStore.Reset).
func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	if err := s.stores.Reset(r.Context()); err != nil {
		s.m.degradedRejects.Add(1)
		s.writeDegraded(w, err)
		return
	}
	// Drop the incremental-scheduling cache with the offers it indexed.
	// Content addressing would age it out anyway (a reset store hands
	// out fresh pointers); invalidating releases the memory now.
	s.se.InvalidateIncremental()
	s.encMu.Lock()
	s.enc = nil
	s.encMu.Unlock()
	s.tracker.Note(1)
	writeJSON(w, http.StatusOK, &StoreResponse{Stored: 0})
}

// modeFromQuery parses the ?mode parameter the ingest and aggregate
// endpoints share (one helper, so the two cannot validate it
// differently).
func modeFromQuery(r *http.Request) (flex.ErrorMode, error) {
	switch r.URL.Query().Get("mode") {
	case "", "first":
		return flex.FirstError, nil
	case "collect":
		return flex.CollectAll, nil
	default:
		return 0, errors.New(`mode must be "first" or "collect"`)
	}
}

// groupingFromQuery builds per-call grouping options from the request,
// with the same defaults as flexctl (est=2, tft=-1, max-group=0) so the
// two fronts cannot drift apart.
func groupingFromQuery(r *http.Request) (flex.GroupParams, error) {
	est, err := qInt(r, "est", 2)
	if err != nil {
		return flex.GroupParams{}, err
	}
	tft, err := qInt(r, "tft", -1)
	if err != nil {
		return flex.GroupParams{}, err
	}
	size, err := qInt(r, "max-group", 0)
	if err != nil {
		return flex.GroupParams{}, err
	}
	return flex.GroupParams{ESTTolerance: est, TFTolerance: tft, MaxGroupSize: size}, nil
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	gp, err := groupingFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	mode, err := modeFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	opts := []flex.Option{flex.WithGrouping(gp), flex.WithErrorMode(mode)}
	parts, total := s.routedSnapshot()
	if total == 0 {
		writeError(w, http.StatusBadRequest, "no offers ingested", nil)
		return
	}
	ags, err := s.se.AggregateRouted(r.Context(), parts, opts...)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, BuildAggregateResponse(total, ags))
}

// handleSchedule runs the full Scenario-1 chain — aggregate → schedule
// → disaggregate — over the stored offers, scatter-gathered across the
// engine shards, and streams the schedule plus the per-prosumer
// assignments: the response body is encoded and flushed in 32 KiB
// chunks (see StreamScheduleResponse) instead of being materialized as
// one document. The bytes are identical to `flexctl schedule -pipeline
// -json` on the same offers and parameters, for every shard count.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	horizon, err := qInt(r, "horizon", 48)
	if err == nil && horizon < 1 {
		err = fmt.Errorf("horizon must be positive, got %d", horizon)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	level, err := qInt64(r, "target", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	gp, err := groupingFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	opts := []flex.Option{flex.WithGrouping(gp)}
	if r.URL.Query().Has("cap") {
		cap, err := qInt64(r, "cap", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), nil)
			return
		}
		opts = append(opts, flex.WithPeakCap(cap))
	}
	parts, total := s.routedSnapshot()
	if total == 0 {
		writeError(w, http.StatusBadRequest, "no offers ingested", nil)
		return
	}
	level = FlatTargetLevelRouted(parts, horizon, level)
	target := timeseries.Constant(0, horizon, level)
	res, err := s.se.PipelineRouted(r.Context(), parts, target, opts...)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error(), nil)
		return
	}
	s.tracker.MarkScheduled()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.encMu.Lock()
	prev := s.enc
	s.encMu.Unlock()
	next, reused, err := streamSchedule(w, BuildScheduleResponse(total, res, target, horizon, level), prev, true)
	if err != nil {
		return
	}
	s.m.encodedReused.Store(int64(reused))
	s.encMu.Lock()
	s.enc = next
	s.encMu.Unlock()
}

// deadlineWriter pushes the connection's write deadline d into the
// future before every write, converting the server's global
// WriteTimeout from a whole-response bound (which would cut large
// streamed schedules mid-body and kill responses after a slow upload
// or long computation) into a per-chunk stall bound. The gate wraps
// every expensive handler's ResponseWriter in one.
type deadlineWriter struct {
	http.ResponseWriter
	rc *http.ResponseController
	d  time.Duration
}

func (dw *deadlineWriter) extend() {
	// SetWriteDeadline errors (unsupported writer) are ignored: the
	// response then just runs under whatever deadline is already set.
	_ = dw.rc.SetWriteDeadline(time.Now().Add(dw.d))
}

func (dw *deadlineWriter) WriteHeader(code int) {
	dw.extend()
	dw.ResponseWriter.WriteHeader(code)
}

func (dw *deadlineWriter) Write(p []byte) (int, error) {
	dw.extend()
	return dw.ResponseWriter.Write(p)
}

// Flush forwards the streamed /v1/schedule body's 32 KiB chunk flushes to
// the writer underneath (without it the flush type assertion would
// stop at this wrapper and the body would only move at buffer
// boundaries).
func (dw *deadlineWriter) Flush() {
	if f, ok := dw.ResponseWriter.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (dw *deadlineWriter) Unwrap() http.ResponseWriter { return dw.ResponseWriter }

// handleMeasures serves GET /v1/measures in one pass: the engine's
// evaluator fills the rows block by block on the shard pools, each
// block encodes its rows on the worker that filled them, and this
// goroutine writes the blocks in offer order as soon as each is next,
// folding each into the set row (flex.MeasureSetFold) and recycling
// its rows and bytes. The status is committed with the first block, so
// an evaluation that fails before any output still answers 422; after
// that a failure (a cancelled request) just ends the body early. The
// set row closes the document. The bytes are exactly
// EncodeResponse(BuildMeasuresResponse(table)).
func (s *Server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	var opts []flex.Option
	switch r.URL.Query().Get("norm") {
	case "", "l1":
	case "l2":
		opts = append(opts, flex.WithNorm(flex.L2))
	case "linf":
		opts = append(opts, flex.WithNorm(flex.LInf))
	default:
		writeError(w, http.StatusBadRequest, `norm must be "l1", "l2" or "linf"`, nil)
		return
	}
	parts, total := s.routedSnapshot()
	if total == 0 {
		writeError(w, http.StatusBadRequest, "no offers ingested", nil)
		return
	}
	offers := shard.Flatten(parts)
	// Buffered for every block, so a worker never waits on the network.
	blocks := make(chan *measuresBlock, (total+flex.MeasuresBlock-1)/flex.MeasuresBlock)
	var err error
	go func() {
		defer close(blocks)
		err = s.se.MeasuresEach(r.Context(), offers, func(b *flex.MeasureBlock) {
			mb := measuresBlocks.Get()
			mb.rows = b
			mb.data = appendMeasureRows(mb.data[:0], b.Rows, b.Lo == 0)
			blocks <- mb
			// The send made the writer runnable on this CPU; yield so
			// it writes and recycles the block now, overlapping the
			// evaluation, instead of after every block is done with
			// the whole body held in flight.
			runtime.Gosched()
		}, opts...)
	}()
	var werr error
	write := func(p []byte) {
		if werr == nil {
			_, werr = w.Write(p)
		}
	}
	var set flex.MeasureSetFold
	pending := make([]*measuresBlock, cap(blocks))
	next := 0
	for mb := range blocks {
		pending[mb.rows.Lo/flex.MeasuresBlock] = mb
		for ; next < len(pending) && pending[next] != nil; next++ {
			if next == 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				write(append(appendMeasuresHead(nil, s.se.MeasureNames(opts...)), '['))
			}
			mb := pending[next]
			pending[next] = nil
			write(mb.data)
			set.Add(mb.rows)
			mb.rows.Release()
			mb.rows = nil
			measuresBlocks.Put(mb)
		}
	}
	// The closed channel orders the evaluator's err before here.
	if err != nil {
		if next == 0 {
			writeError(w, http.StatusUnprocessableEntity, err.Error(), nil)
		}
		return
	}
	write(append(appendMeasuresTail([]byte{']'}, set.Values()), '\n'))
}

// measuresBlock is one evaluated block of GET /v1/measures: its rows
// and their encoding.
type measuresBlock struct {
	rows *flex.MeasureBlock
	data []byte
}

// measuresBlocks recycles measuresBlocks and their encoding buffers
// across blocks and requests, keeping as many as the engine keeps
// evaluator blocks. A block of the typical fleet encodes to ~9 KB.
var measuresBlocks = pool.NewFree(4, func() *measuresBlock {
	return &measuresBlock{data: make([]byte, 0, 16<<10)}
})

// handleHealthz reports liveness. Draining is 503 (stop routing here);
// degraded stays 200 — the instance still serves reads, and killing it
// would lose the in-memory offers that are still answering schedules —
// but the body says so, and flexd_wal_degraded exposes it to alerting.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "stored": s.stores.Len()})
		return
	}
	if err := s.stores.Err(); err != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "degraded", "stored": s.stores.Len(), "error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "stored": s.stores.Len()})
}

// qInt parses an optional integer query parameter.
func qInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", key, err)
	}
	return n, nil
}

// qInt64 parses an optional 64-bit integer query parameter.
func qInt64(r *http.Request, key string, def int64) (int64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", key, err)
	}
	return n, nil
}

// writeJSON writes a 2xx wire value through the shared encoder.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = EncodeResponse(w, v)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, code int, msg string, records []RecordErrorInfo) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = EncodeResponse(w, &ErrorResponse{Error: msg, Records: records})
}

// countingReader counts bytes for the ingest throughput metrics.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
