// Package obs is the pipeline's observability layer: low-overhead
// per-request tracing, per-stage latency histograms, and helpers for
// structured request logging.
//
// A Tracer hands out one Trace per request at the server edge; the
// trace travels through the pipeline inside the context. Every stage
// calls obs.Start(ctx, stage) and ends the returned span; when no
// trace is in the context (tracing disabled, or a library used
// outside flexd) Start returns immediately with a nil span whose End
// is a no-op — the disabled path is a context lookup and a nil check,
// with no allocation and no atomic traffic.
//
// The enabled path is a single atomic slot claim into a fixed span
// arena allocated once per trace, so recording a span never allocates
// and never takes a lock. Completed traces land in a bounded ring the
// server exposes as GET /debug/traces.
package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names used throughout the pipeline. They are the values of
// the {stage} label on flexd_stage_seconds and the span names in
// /debug/traces.
const (
	StageIngestDecode = "ingest_decode"
	StageGroupSort    = "group_sort"
	StageGroupPack    = "group_pack"
	StageAggregate    = "aggregate"
	StageSchedule     = "schedule"
	StageDisaggregate = "disaggregate"
	StageWALAppend    = "wal_append"
	StageWALFsync     = "wal_fsync"
	StagePoolQueue    = "pool_queue"
	// StageMeasures is Engine.Measures, behind GET /v1/measures: a
	// read path beside the pipeline, not one of its steps. It is not
	// listed in Stages, whose entries perfbench reports as the
	// obs.<stage>_ms metrics BENCHMARK.json names.
	StageMeasures = "measures"
)

// Stages lists every stage name, in pipeline order. Used by the
// metrics renderer and tests.
var Stages = []string{
	StageIngestDecode,
	StageGroupSort,
	StageGroupPack,
	StageAggregate,
	StageSchedule,
	StageDisaggregate,
	StageWALAppend,
	StageWALFsync,
	StagePoolQueue,
}

// Tracer owns the stage metrics and the ring of completed traces. The
// zero value is not usable; construct with NewTracer. A nil *Tracer
// is safe to use everywhere and records nothing.
type Tracer struct {
	metrics  *Metrics
	maxSpans int

	mu   sync.Mutex
	ring []TraceData
	next int
	size int

	idSeq atomic.Uint64
}

// NewTracer returns a tracer keeping the last ringSize completed
// traces (<=0: 64), each with room for maxSpans spans (<=0: 256);
// spans past the arena are counted as dropped, never recorded.
func NewTracer(ringSize, maxSpans int) *Tracer {
	if ringSize <= 0 {
		ringSize = 64
	}
	if maxSpans <= 0 {
		maxSpans = 256
	}
	return &Tracer{
		metrics:  NewMetrics(),
		maxSpans: maxSpans,
		ring:     make([]TraceData, ringSize),
	}
}

// Metrics returns the tracer's stage-metrics sink, or nil for a nil
// tracer.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Start allocates a trace with the given ID (empty: a generated
// request ID) and returns it. Returns nil for a nil tracer.
func (t *Tracer) Start(id string) *Trace {
	if t == nil {
		return nil
	}
	if id == "" {
		id = t.newID()
	}
	return &Trace{
		tracer: t,
		id:     id,
		start:  time.Now(),
		spans:  make([]Span, t.maxSpans),
	}
}

// newID returns a process-unique request ID: a monotonic sequence
// prefixed with the tracer's start-of-process nanosecond timestamp so
// IDs from different flexd runs do not collide in aggregated logs.
func (t *Tracer) newID() string {
	seq := t.idSeq.Add(1)
	return "req-" + strconv.FormatInt(time.Now().UnixNano(), 36) + "-" + strconv.FormatUint(seq, 10)
}

// NewRequestID generates a client-side request ID suitable for the
// X-Request-Id header: unique within the process and compact.
func NewRequestID() string {
	seq := clientIDSeq.Add(1)
	return "cli-" + strconv.FormatInt(time.Now().UnixNano(), 36) + "-" + strconv.FormatUint(seq, 10)
}

var clientIDSeq atomic.Uint64

// push files a completed trace into the bounded ring, newest
// overwriting oldest.
func (t *Tracer) push(td TraceData) {
	t.mu.Lock()
	t.ring[t.next] = td
	t.next = (t.next + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	t.mu.Unlock()
}

// Last returns up to n completed traces, newest first. n <= 0 means
// all retained traces.
func (t *Tracer) Last(n int) []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.size {
		n = t.size
	}
	out := make([]TraceData, 0, n)
	for i := 1; i <= n; i++ {
		idx := (t.next - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// Trace is one request's span arena. Methods are safe for concurrent
// use by the fan-out goroutines of a single request; a nil *Trace
// records nothing.
type Trace struct {
	tracer *Tracer
	id     string
	start  time.Time

	spans    []Span
	next     atomic.Int32
	dropped  atomic.Int64
	offers   atomic.Int64
	groups   atomic.Int64
	finished atomic.Bool
}

// ID returns the trace's request ID ("" for nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Span slot states. A span becomes visible to Finish only once its
// fields are published by the started->state store; the release store
// on state pairs with Finish's acquire load.
const (
	spanEmpty int32 = iota
	spanStarted
	spanEnded
)

// Span is one recorded stage interval. The zero value is an
// unclaimed arena slot. A nil *Span is inert: End is a no-op.
type Span struct {
	tr      *Trace
	name    string
	parent  int32 // arena index of parent span, -1 for root
	shard   int32 // shard attribute, -1 when not shard-scoped
	startNs int64 // offset from trace start
	durNs   int64 // 0 until ended
	state   atomic.Int32
}

// startSpan claims a span slot. Returns the slot index and span, or
// (-1, nil) when the arena is full (the drop is counted). All fields
// including the start offset are written before the state store
// publishes the slot, so Finish never observes a half-written span.
func (tr *Trace) startSpan(name string, parent, shard int32, startNs int64) (int32, *Span) {
	idx := tr.next.Add(1) - 1
	if int(idx) >= len(tr.spans) {
		tr.dropped.Add(1)
		return -1, nil
	}
	sp := &tr.spans[idx]
	sp.tr = tr
	sp.name = name
	sp.parent = parent
	sp.shard = shard
	sp.startNs = startNs
	sp.state.Store(spanStarted)
	return idx, sp
}

// End completes the span and feeds its duration into the tracer's
// stage metrics. Safe on a nil span and idempotent enough for defer
// use (a second End overwrites the duration; spans are not reused
// within a trace).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.endWith(int64(time.Since(sp.tr.start)) - sp.startNs)
}

// endWith completes the span with an explicit duration — used by
// RecordSince, whose measured interval may start before the trace
// did (the span's start offset is clamped to 0 but the duration must
// stay honest).
func (sp *Span) endWith(d int64) {
	if d < 0 {
		d = 0
	}
	atomic.StoreInt64(&sp.durNs, d)
	sp.state.Store(spanEnded)
	sp.tr.tracer.metrics.Observe(sp.name, int(sp.shard), time.Duration(d))
}

// Finish snapshots the trace into a TraceData, files it in the
// tracer's ring, and returns it. Only the first call does work;
// subsequent calls return a zero TraceData with OK=false semantics
// (empty ID). Spans still in flight at Finish time appear with
// DurationNs 0.
func (tr *Trace) Finish() TraceData {
	if tr == nil || !tr.finished.CompareAndSwap(false, true) {
		return TraceData{}
	}
	n := int(tr.next.Load())
	if n > len(tr.spans) {
		n = len(tr.spans)
	}
	td := TraceData{
		ID:           tr.id,
		Start:        tr.start,
		DurationNs:   int64(time.Since(tr.start)),
		Offers:       tr.offers.Load(),
		Groups:       tr.groups.Load(),
		DroppedSpans: tr.dropped.Load(),
		Spans:        make([]SpanData, 0, n),
	}
	for i := 0; i < n; i++ {
		sp := &tr.spans[i]
		st := sp.state.Load() // acquire: pairs with startSpan's publish
		if st == spanEmpty {
			// Slot claimed but fields not yet published; a racing span
			// that Finish caught mid-start. Keep indices 1:1 with the
			// arena so Parent references stay valid.
			td.Spans = append(td.Spans, SpanData{Name: "unpublished", Parent: -1, Shard: -1})
			continue
		}
		td.Spans = append(td.Spans, SpanData{
			Name:       sp.name,
			Parent:     int(sp.parent),
			Shard:      int(sp.shard),
			StartNs:    sp.startNs,
			DurationNs: atomic.LoadInt64(&sp.durNs),
		})
	}
	tr.tracer.push(td)
	return td
}

// ctxKey is the context key space for obs values.
type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
	shardKey
)

// NewContext returns ctx carrying the trace. A nil trace returns ctx
// unchanged, keeping the disabled path allocation-free.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, tr)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// WithShard returns ctx carrying a shard attribute; spans started
// under it carry shard as their label. No-op when ctx has no trace.
func WithShard(ctx context.Context, shard int) context.Context {
	if TraceFrom(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, shardKey, int32(shard))
}

func shardFrom(ctx context.Context) int32 {
	if s, ok := ctx.Value(shardKey).(int32); ok {
		return s
	}
	return -1
}

// Start begins a span named stage under the current span in ctx and
// returns a context carrying it (for nesting) plus the span itself.
// When ctx has no trace it returns (ctx, nil) — the caller's deferred
// End is then a nil-check no-op.
func Start(ctx context.Context, stage string) (context.Context, *Span) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent := int32(-1)
	if pidx, ok := ctx.Value(spanKey).(int32); ok {
		parent = pidx
	}
	idx, sp := tr.startSpan(stage, parent, shardFrom(ctx), int64(time.Since(tr.start)))
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey, idx), sp
}

// RecordSince records a completed span for stage covering t0..now —
// for stages whose start predates trace plumbing (e.g. pool
// queue-wait measured from the enqueue timestamp). No-op without a
// trace in ctx.
func RecordSince(ctx context.Context, stage string, t0 time.Time) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return
	}
	parent := int32(-1)
	if pidx, ok := ctx.Value(spanKey).(int32); ok {
		parent = pidx
	}
	start := int64(t0.Sub(tr.start))
	if start < 0 {
		start = 0
	}
	_, sp := tr.startSpan(stage, parent, shardFrom(ctx), start)
	if sp == nil {
		return
	}
	sp.endWith(int64(time.Since(t0)))
}

// AddOffers adds n to the trace's offer count (and the tracer's
// global ingested-offers counter). No-op without a trace.
func AddOffers(ctx context.Context, n int) {
	if tr := TraceFrom(ctx); tr != nil && n > 0 {
		tr.offers.Add(int64(n))
		tr.tracer.metrics.offers.Add(int64(n))
	}
}

// AddGroups adds n to the trace's group count (and the tracer's
// global groups counter). No-op without a trace.
func AddGroups(ctx context.Context, n int) {
	if tr := TraceFrom(ctx); tr != nil && n > 0 {
		tr.groups.Add(int64(n))
		tr.tracer.metrics.groups.Add(int64(n))
	}
}
