package flex

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/inc"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/pool"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// Engine is the library's long-lived entry point: one option-configured
// object that owns persistent worker pools and presents the paper's
// operations — aggregation (Scenario 1), scheduling, the full
// pipeline, disaggregation and the flexibility measures — as
// context-first methods. Create one with New (one shard) or NewSharded
// at startup, share it freely (every method is safe for concurrent
// use; calls share the pools without sharing any per-call state), and
// Close it on shutdown.
//
// An engine has one or more shards, each owning one persistent worker
// pool, and serves a population split across them by a shard router
// (grid zone/tenant when the offer carries one, consistent hash of the
// prosumer ID otherwise, round-robin for anonymous offers). Aggregate
// and Pipeline run scatter-gather: every shard stable-sorts its part
// on its own pool, the runs are k-way merged by (earliest start, time
// flexibility, sequence) — which reproduces the global stable grouping
// order bit for bit, because sequence order is store order — the
// merged run is greedily packed (segmented in parallel at the EST-gap
// cuts), per-group aggregation fans out across the shard pools in
// contiguous blocks, the global greedy scheduler places the aggregates
// in group order, and disaggregation fans back out the same way. The
// output is therefore bit-identical to the serial chain over the same
// population for every shard count, worker count and routing key — the
// property test in sharded_test.go pins this against the stateless
// serial oracle.
//
// One option set governs every method: WithPeakCap, for example,
// applies to Schedule and Pipeline alike, so the same cap can never
// silently differ between the two paths.
type Engine struct {
	opts engineOptions
	// pools holds one persistent worker pool per shard. Every entry is
	// nil when the engine is serial (WithWorkers(1)): each shard's work
	// then runs on the goroutine that drives its block.
	pools  []*pool.Pool
	router shard.Router
	// incState is the incremental-scheduling cache behind
	// WithIncremental, created lazily on the first incremental Pipeline
	// call. Runs serialize on the state's own mutex: placement against
	// one shared residual was always a serial stage per call, and the
	// cache swap must be atomic with it.
	incOnce  sync.Once
	incState *inc.State
	// order is the incremental grouping order: the last incremental
	// Pipeline call's parts and merged sort, so the next call re-sorts
	// only the entries that changed (see scatterSort).
	order orderCache
}

// ShardedEngine is another name for Engine, whose shard count is set by
// NewSharded.
type ShardedEngine = Engine

// RoutedOffer is one offer in a shard store together with its global
// sequence number — the unit a shard router deals in. Parts handed to
// the *Routed methods must keep each shard's entries in ascending Seq
// order with globally unique Seqs, which is exactly what
// Engine.Partition and the flexd shard store produce.
type RoutedOffer = shard.Entry

// engineOptions is the resolved option set of one Engine.
type engineOptions struct {
	workers int
	group   GroupParams
	// grouper, when non-nil, replaces the built-in scatter-gather
	// threshold grouping as the pipeline's entry stage (WithGrouper).
	grouper Grouper
	// placement is the greedy scheduler's placement order
	// (WithPlacement); placeMeasure ranks offers for the
	// flexibility-aware orders (WithPlacementMeasure).
	placement    ScheduleOrder
	placeMeasure Measure
	safe         bool
	peakCap      int64
	errMode      ErrorMode
	norm         Norm
	// incremental switches Pipeline to the stateful cached path
	// (WithIncremental); incThreshold is its dirty-fraction fallback
	// bound (WithIncrementalThreshold, 0 = inc.DefaultThreshold).
	incremental  bool
	incThreshold float64
}

// Option configures an Engine at construction (functional options) —
// and, passed to an Engine method, overrides the engine's option set
// for that one call: eng.Aggregate(ctx, offers, WithGrouping(p)) runs
// one aggregation under grouping p without touching the engine or its
// pools. Per-call overrides are what let a tolerance sweep share one
// engine instead of constructing one per tolerance. A per-call
// WithWorkers caps the call's share of each shard's pool (on a serial
// engine it spins up per-call goroutines instead, since there is no
// pool to share).
type Option func(*engineOptions)

// WithWorkers sizes each shard's persistent worker pool: 0 (the
// default) means one worker per logical CPU, 1 makes the engine fully
// serial (no pools), and larger values pin the pool size.
func WithWorkers(n int) Option {
	return func(o *engineOptions) { o.workers = n }
}

// WithGrouping sets the similarity tolerances of the engine's built-in
// threshold grouping — the scatter-gather sort, merge and segmented
// pack Aggregate and Pipeline partition offers with, whose output is
// bit-identical to the serial grouping.Group for every shard and
// worker count. The default is the zero GroupParams (identical
// earliest starts and time flexibilities per group, unbounded group
// size). WithGrouping (re)selects the built-in grouping under p,
// replacing any custom Grouper installed earlier in the option list.
func WithGrouping(p GroupParams) Option {
	return func(o *engineOptions) {
		o.group = p
		o.grouper = nil
	}
}

// WithGrouper installs a custom grouping strategy as the pipeline's
// entry stage: Aggregate and Pipeline hand the offers (in store order)
// to g and aggregate whatever partition it returns. The grouping
// package ships the strategies — grouping.Sharded, grouping.Threshold,
// grouping.Balance — and aggregate.Optimizer adapts the loss-bounded
// optimizing strategy. The Grouper must be safe for concurrent use;
// the engine shares it across calls.
func WithGrouper(g Grouper) Option {
	return func(o *engineOptions) { o.grouper = g }
}

// WithPlacement selects the greedy scheduler's placement order for
// Schedule and Pipeline. Pipeline places the aggregates in group order
// and therefore supports OrderArrival only; other orders make it fail
// with sched.ErrStreamOrder. The default is OrderArrival.
func WithPlacement(order ScheduleOrder) Option {
	return func(o *engineOptions) { o.placement = order }
}

// WithPlacementMeasure sets the flexibility measure ranking offers for
// the flexibility-aware placement orders (OrderLeastFlexibleFirst,
// OrderMostFlexibleFirst). The default is the paper's vector measure.
// The measure must be safe for concurrent use — every measure in this
// library is.
func WithPlacementMeasure(m Measure) Option {
	return func(o *engineOptions) { o.placeMeasure = m }
}

// WithSafe makes Aggregate and Pipeline tighten every constituent's
// totals into its slice bounds before aggregating (AggregateSafe),
// guaranteeing that every valid aggregate assignment disaggregates.
func WithSafe(safe bool) Option {
	return func(o *engineOptions) { o.safe = safe }
}

// WithPeakCap sets a soft peak cap: Schedule and Pipeline treat |load|
// above the cap as prohibitively expensive — the paper's DSO congestion
// management. The cap is soft: when the fleet's mandatory energy cannot
// fit under it, a schedule is still produced with the overage
// minimised. 0 (the default) disables the cap.
func WithPeakCap(cap int64) Option {
	return func(o *engineOptions) { o.peakCap = cap }
}

// WithIncremental switches Pipeline and PipelineRouted to incremental
// continuous scheduling: the engine keeps a content-addressed cache of
// each group's aggregate and placement across calls, so a call after a
// small fleet delta re-aggregates and re-places only the groups whose
// membership changed — O(changed groups) instead of O(fleet) — and
// replays the rest with O(profile) integer adds. The output is
// bit-identical to the stateless pipeline for every churn sequence,
// shard count and worker count (the equivalence property test pins
// this); the stateless path remains the oracle. Incremental runs
// serialize on the engine's cache; the stateless stages still fan out
// across the worker pools. Only OrderArrival placement is supported,
// exactly like the stateless pipeline.
//
// With the built-in grouping, incremental calls also carry the grouping
// order across calls: a call diffs each part against the previous
// call's by sequence number and offer pointer, sorts only the entries
// that changed and merges them into the previous merged order, so its
// sort costs O(changed offers) too. Both caches rely on the store's
// contract: an offer handed to the engine is never modified afterwards
// (a change is a new offer), and a part slice is never rewritten at a
// position a call has seen — exactly what shard.Stores snapshots and
// Partition guarantee.
func WithIncremental(on bool) Option {
	return func(o *engineOptions) { o.incremental = on }
}

// WithIncrementalThreshold sets the dirty-fraction fallback bound of
// incremental scheduling: when more than this fraction of groups
// changed since the last call, the run re-places everything instead of
// maintaining the reuse bookkeeping (cached aggregates are still
// reused). 0 selects inc.DefaultThreshold (0.5); 1 never falls back.
// The fallback changes cost only, never output.
func WithIncrementalThreshold(frac float64) Option {
	return func(o *engineOptions) { o.incThreshold = frac }
}

// WithErrorMode selects first-error or collect-all failure reporting
// for the per-group stages (Aggregate, Pipeline, Disaggregate). The
// default is FirstError.
func WithErrorMode(m ErrorMode) Option {
	return func(o *engineOptions) { o.errMode = m }
}

// WithNorm selects the norm (L1, L2, LInf) the vector and series
// measures use in Measures. The default is L1, matching AllMeasures.
func WithNorm(n Norm) Option {
	return func(o *engineOptions) { o.norm = n }
}

// New returns a long-lived one-shard Engine configured by the options:
// NewSharded(1, opts...).
func New(opts ...Option) *Engine {
	return NewSharded(1, opts...)
}

// NewSharded returns an Engine of `shards` shards (values below 1 mean
// 1), each with its own persistent worker pool of the configured size,
// started immediately unless WithWorkers(1) made the engine serial.
// The pools persist across calls until Close.
func NewSharded(shards int, opts ...Option) *Engine {
	if shards < 1 {
		shards = 1
	}
	e := &Engine{
		pools:  make([]*pool.Pool, shards),
		router: shard.Router{Shards: shards},
	}
	for _, opt := range opts {
		opt(&e.opts)
	}
	if e.opts.norm == 0 {
		e.opts.norm = L1
	}
	if e.opts.workers != 1 {
		for k := range e.pools {
			e.pools[k] = pool.New(e.opts.workers)
		}
	}
	return e
}

// SetRouterKey replaces the router's partitioning key — the pluggable
// seam for deployments whose affinity is neither zone nor prosumer ID
// (an empty key falls back to round-robin). Call it before the engine
// starts partitioning offers; it is not synchronized with in-flight
// calls. The scatter-gather output is bit-identical under every key,
// so changing the key never changes results, only locality.
func (e *Engine) SetRouterKey(key func(*FlexOffer) string) {
	e.router.Key = key
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.pools) }

// Workers reports the per-shard worker count (1 for a serial engine).
func (e *Engine) Workers() int {
	if e.pools[0] == nil {
		return 1
	}
	return e.pools[0].Workers()
}

// Executor exposes shard 0's persistent pool as an Executor, for
// subsystems that shard their own index-addressed work across it — the
// flexd service's NDJSON decode shards submit here. It is nil for a
// serial engine, which every Executor consumer treats as per-call
// spin-up.
func (e *Engine) Executor() Executor { return e.executor(0) }

// executor returns shard k's pool as an Executor; k wraps modulo the
// shard count, tolerating routed parts slices wider than the engine.
// The nil check matters: wrapping a nil *pool.Pool in the interface
// would make it non-nil and silently serialize callers instead of
// letting them fall back to per-call spin-up.
func (e *Engine) executor(k int) Executor {
	if p := e.pools[k%len(e.pools)]; p != nil {
		return p
	}
	return nil
}

// PoolStats reports the pools' total size and how many of their
// workers are executing a task right now, summed across shards — the
// occupancy gauge flexd's /metrics endpoint exports. A serial engine
// reports one worker per shard, none busy.
func (e *Engine) PoolStats() (workers, busy int) {
	for k := range e.pools {
		w, b := e.ShardPoolStats(k)
		workers += w
		busy += b
	}
	return workers, busy
}

// ShardPoolStats reports shard k's pool size and busy workers — the
// per-shard gauge flexd's /metrics labels by shard.
func (e *Engine) ShardPoolStats(k int) (workers, busy int) {
	if e.pools[k] == nil {
		return 1, 0
	}
	return e.pools[k].Workers(), e.pools[k].Busy()
}

// Close releases every shard's worker pool. Calls already in flight
// complete; calls made after Close still work, degraded to per-call
// goroutines. Close is idempotent.
func (e *Engine) Close() {
	for _, p := range e.pools {
		p.Close()
	}
}

// Partition routes a materialized offer slice through the shard router
// into per-shard parts, assigning global sequence numbers in input
// order — the entry point the non-Routed convenience methods use. A
// long-lived service keeps offers pre-routed (flexd's shard store)
// and calls the Routed methods directly instead.
func (e *Engine) Partition(offers []*FlexOffer) [][]RoutedOffer {
	return shard.Partition(offers, e.router)
}

// resolve returns the engine's option set with per-call overrides
// applied. The engine's own options are copied by value, so a call
// never mutates the engine.
func (e *Engine) resolve(opts []Option) engineOptions {
	o := e.opts
	for _, opt := range opts {
		opt(&o)
	}
	if o.norm == 0 {
		o.norm = L1
	}
	return o
}

// parallelParams builds shard k's per-call parallel params: a call
// resolved to one worker stays serial; anything else submits to the
// shard's persistent pool, with o.workers capping this call's share of
// it (or, on a serial engine, spinning up per-call goroutines).
func (e *Engine) parallelParams(k int, o engineOptions) aggregate.ParallelParams {
	pp := aggregate.ParallelParams{Workers: o.workers, ErrorMode: o.errMode}
	if pp.Workers != 1 {
		pp.Pool = e.executor(k)
	}
	return pp
}

// runIndexed fans fn(i) over [0, n) across shard k's pool, or runs it
// inline on a serial engine.
func (e *Engine) runIndexed(k, n int, fn func(int)) {
	if p := e.pools[k]; p != nil {
		p.ForEach(n, 0, 0, fn)
		return
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Aggregate partitions the offers with the shard router and runs the
// scatter-gather grouping and aggregation (Scenario 1's aggregation
// stage). The result is identical to the serial chain — grouping.Group
// then one aggregation per group — in the same group order for every
// engine configuration; per-group failures are reported under the
// engine's error mode. Options override the engine's option set for
// this call only — e.g. Aggregate(ctx, offers, WithGrouping(p)) sweeps
// a tolerance without constructing a second engine.
func (e *Engine) Aggregate(ctx context.Context, offers []*FlexOffer, opts ...Option) ([]*Aggregated, error) {
	return e.AggregateRouted(ctx, e.Partition(offers), opts...)
}

// AggregateRouted is Aggregate over pre-routed parts (see RoutedOffer
// for the part invariants).
func (e *Engine) AggregateRouted(ctx context.Context, parts [][]RoutedOffer, opts ...Option) ([]*Aggregated, error) {
	o := e.resolve(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	groups, err := e.scatterGroup(ctx, parts, o, false)
	if err != nil {
		return nil, err
	}
	obs.AddGroups(ctx, len(groups))
	return e.scatterAggregateGroups(ctx, groups, o)
}

// AggregateGroups aggregates pre-computed groups — the output of
// GroupOffers, BalanceGroups or OptimizeGroups — across the shard
// pools, preserving group order, for callers whose partitioning
// strategy is not the engine's grouping. WithSafe (engine-level or
// per-call) selects safe aggregation; failures are reported under the
// error mode exactly like Aggregate.
func (e *Engine) AggregateGroups(ctx context.Context, groups [][]*FlexOffer, opts ...Option) ([]*Aggregated, error) {
	o := e.resolve(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.scatterAggregateGroups(ctx, groups, o)
}

// Schedule greedily assigns every offer a start time and energy values
// so the total load tracks the target series, using the incremental
// candidate evaluator, the engine's peak cap (overridable per call with
// WithPeakCap), and the engine's placement order (WithPlacement, with
// WithPlacementMeasure ranking offers for the flexibility-aware
// orders). Scheduling against one shared residual is inherently
// sequential, so it runs on the calling goroutine. OrderRandom needs a
// caller-owned rand source and fails with sched.ErrNeedsRand.
func (e *Engine) Schedule(ctx context.Context, offers []*FlexOffer, target Series, opts ...Option) (*ScheduleResult, error) {
	o := e.resolve(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := obs.Start(ctx, obs.StageSchedule)
	defer sp.End()
	return sched.Schedule(offers, target, sched.Options{
		PeakCap: o.peakCap,
		Order:   o.placement,
		Measure: o.placeMeasure,
	})
}

// ScheduleRouted is Schedule over pre-routed parts, flattened back into
// store order.
func (e *Engine) ScheduleRouted(ctx context.Context, parts [][]RoutedOffer, target Series, opts ...Option) (*ScheduleResult, error) {
	return e.Schedule(ctx, shard.Flatten(parts), target, opts...)
}

// Improve refines a schedule by local search: each round re-places one
// offer at a time against the residual target and keeps moves that
// lower the L1 imbalance, until a full sweep makes no improvement or
// maxRounds is reached (0: until convergence). It runs on the
// incremental evaluator, so each re-placement is O(profile) rather
// than O(horizon) per candidate. Improve minimises imbalance only; the
// engine's peak cap does not constrain it.
func (e *Engine) Improve(ctx context.Context, offers []*FlexOffer, target Series, res *ScheduleResult, maxRounds int) (*ScheduleResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sched.Improve(offers, target, res, maxRounds)
}

// PipelineResult is the output of Engine.Pipeline: the complete
// Scenario-1 chain from raw offers to per-prosumer assignments.
type PipelineResult struct {
	// Aggregates holds the aggregated groups in group order.
	Aggregates []*Aggregated
	// AggregateSchedule is the schedule of the aggregates:
	// AggregateSchedule.Assignments[i] instantiates Aggregates[i].Offer.
	AggregateSchedule *ScheduleResult
	// Disaggregated[i][j] is the assignment of
	// Aggregates[i].Constituents[j]. Disaggregation preserves slot-wise
	// sums, so the constituent assignments reproduce Load exactly.
	Disaggregated [][]Assignment
	// Load is the slot-wise total load of the schedule.
	Load Series
}

// Pipeline partitions the offers with the shard router and runs the
// full Scenario-1 chain scatter-gather; see PipelineRouted.
func (e *Engine) Pipeline(ctx context.Context, offers []*FlexOffer, target Series, opts ...Option) (*PipelineResult, error) {
	return e.PipelineRouted(ctx, e.Partition(offers), target, opts...)
}

// PipelineRouted runs the paper's full Scenario-1 chain — group →
// aggregate → schedule → disaggregate — over pre-routed parts as one
// scatter-gather pipeline: per-shard sorting and per-group aggregation
// fan out across the shard pools, the deterministic merge and the
// greedy placement of the aggregates in group order run at the gather
// point, and the scheduled aggregates fan back out for
// disaggregation. The result is identical to the sequence Aggregate →
// Schedule (arrival order) → Disaggregate for every configuration, and
// the engine's peak cap applies exactly as in Schedule. Only
// OrderArrival placement is supported (sched.ErrStreamOrder otherwise).
func (e *Engine) PipelineRouted(ctx context.Context, parts [][]RoutedOffer, target Series, opts ...Option) (*PipelineResult, error) {
	o := e.resolve(opts)
	// Fail before grouping and aggregating a whole fleet whose schedule
	// can never start.
	if o.placement != OrderArrival {
		return nil, sched.ErrStreamOrder
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	groups, err := e.scatterGroup(ctx, parts, o, o.incremental)
	if err != nil {
		return nil, err
	}
	obs.AddGroups(ctx, len(groups))
	if o.incremental {
		return e.pipelineIncremental(ctx, groups, target, o)
	}
	ags, err := e.scatterAggregateGroups(ctx, groups, o)
	if err != nil {
		return nil, err
	}
	offers := make([]*FlexOffer, len(ags))
	for i, ag := range ags {
		offers[i] = ag.Offer
	}
	sr, err := e.Schedule(ctx, offers, target, opts...)
	if err != nil {
		return nil, err
	}
	disagg, err := e.scatterDisaggregate(ctx, ags, sr.Assignments, o)
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Aggregates:        ags,
		AggregateSchedule: sr,
		Disaggregated:     disagg,
		Load:              sr.Load,
	}, nil
}

// incrementalState returns the engine's incremental cache, creating it
// on first use.
func (e *Engine) incrementalState() *inc.State {
	e.incOnce.Do(func() { e.incState = inc.NewState() })
	return e.incState
}

// IncrementalStats reports the incremental-scheduling cache statistics
// (all zero when WithIncremental was never used) — the numbers behind
// flexd's flexd_sched_cache_hits_total and flexd_sched_dirty_groups.
func (e *Engine) IncrementalStats() inc.Stats {
	return e.incrementalState().Stats()
}

// InvalidateIncremental drops the incremental-scheduling cache and the
// cached grouping order — the hook the server's store reset calls. The
// next incremental Pipeline call runs full and rebuilds both. Never
// needed for correctness (both are content-addressed), only to release
// memory promptly.
func (e *Engine) InvalidateIncremental() {
	e.incrementalState().Invalidate()
	e.order.store(orderState{}, 0)
}

// OrderDelta reports how many entries the last incremental Pipeline
// call re-sorted to update the cached grouping order: the entries
// removed since the call before plus those added (every entry on a
// cold call). It is 0 before the first incremental call and after
// InvalidateIncremental — the number behind flexd's
// flexd_sched_order_delta.
func (e *Engine) OrderDelta() int {
	e.order.mu.Lock()
	defer e.order.mu.Unlock()
	return e.order.delta
}

// pipelineIncremental is the stateful cached pipeline behind
// WithIncremental: the partition comes from the scatter-gather
// grouping stage exactly as in the stateless path (so group identity
// is bit-identical across shard counts), every group is keyed against
// the cache, aggregate-cache misses fan out across the shard pools in
// contiguous blocks, the merge-walk placement runs at the gather
// point, and only the groups whose assignment changed disaggregate.
func (e *Engine) pipelineIncremental(ctx context.Context, groups [][]*FlexOffer, target Series, o engineOptions) (*PipelineResult, error) {
	res, err := e.incrementalState().Run(ctx, groups, target,
		inc.Config{PeakCap: o.peakCap, Safe: o.safe, Threshold: o.incThreshold},
		func(ctx context.Context, gs [][]*FlexOffer) ([]*Aggregated, error) {
			return e.scatterAggregateGroups(ctx, gs, o)
		},
		func(ctx context.Context, ags []*Aggregated, asgs []Assignment) ([][]Assignment, error) {
			return e.scatterDisaggregate(ctx, ags, asgs, o)
		})
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Aggregates:        res.Aggregates,
		AggregateSchedule: &sched.Result{Assignments: res.Assignments, Load: res.Load},
		Disaggregated:     res.Disaggregated,
		Load:              res.Load,
	}, nil
}

// Disaggregate maps scheduled aggregate assignments back to their
// constituents, fanned out in contiguous blocks across the shard
// pools: assignments[i] must be valid for ags[i].Offer, and the result
// holds one assignment per constituent in constituent order. Failures
// are reported under the engine's error mode (overridable per call
// with WithErrorMode), keyed by aggregate index.
func (e *Engine) Disaggregate(ctx context.Context, ags []*Aggregated, assignments []Assignment, opts ...Option) ([][]Assignment, error) {
	return e.scatterDisaggregate(ctx, ags, assignments, e.resolve(opts))
}

// MeasureTable is Engine.Measures' output: the paper's eight measures
// (Table 1 column order) evaluated over a set of offers.
type MeasureTable struct {
	// Names holds the measure names, Table 1 column order.
	Names []string
	// Values[i][j] is measure j evaluated on offer i; NaN where the
	// measure is undefined for the offer (e.g. the relative area
	// measure on a mixed offer). The rows share one backing array,
	// each capacity-capped at its own length.
	Values [][]float64
	// Set[j] is measure j's set-level value over all offers; NaN where
	// undefined.
	Set []float64
}

// Measures evaluates the paper's eight flexibility measures on every
// offer — the vector and series measures under the engine's norm,
// overridable per call with WithNorm — plus the set-level values. It
// runs MeasuresEach's evaluator with each block's rows placed in the
// table, then folds the set row block by block in offer order
// (MeasureSetFold). Undefined values are reported as NaN rather than
// failing the batch.
func (e *Engine) Measures(ctx context.Context, offers []*FlexOffer, opts ...Option) (*MeasureTable, error) {
	o := e.resolve(opts)
	const w = core.RowWidth
	t := &MeasureTable{
		Names:  measureNames(measureSet(o.norm)),
		Values: make([][]float64, len(offers)),
	}
	slab := make([]float64, len(offers)*w)
	for i := range t.Values {
		t.Values[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	blocks := make([]MeasureBlock, (len(offers)+MeasuresBlock-1)/MeasuresBlock)
	err := e.measureBlocks(ctx, offers, o.norm, func(k int) *MeasureBlock {
		b := &blocks[k]
		b.Lo = k * MeasuresBlock
		b.Rows = t.Values[b.Lo:min(b.Lo+MeasuresBlock, len(offers))]
		return b
	}, nil)
	if err != nil {
		return nil, err
	}
	var set MeasureSetFold
	for k := range blocks {
		set.Add(&blocks[k])
	}
	t.Set = set.Values()
	return t, nil
}

// MeasureNames returns the column names Measures reports under the
// engine's options with the per-call overrides applied — the Names of
// every table it would return — without evaluating anything.
func (e *Engine) MeasureNames(opts ...Option) []string {
	return measureNames(measureSet(e.resolve(opts).norm))
}

// measureNames returns the names of ms, in order.
func measureNames(ms []Measure) []string {
	names := make([]string, len(ms))
	for j, m := range ms {
		names[j] = m.Name()
	}
	return names
}

// MeasuresBlock is the number of offers per block of the measures
// evaluator: block k holds the rows of offers
// [k·MeasuresBlock, (k+1)·MeasuresBlock), fewer in the fleet's last
// block.
const MeasuresBlock = 256

// MeasureBlock is one evaluated block of the measures evaluator: the
// rows of MeasuresBlock consecutive offers and the block's share of
// the assignments measure's set product.
type MeasureBlock struct {
	// Lo is the index of the block's first offer.
	Lo int
	// Rows[i] holds offer Lo+i's eight measures in Table 1 column
	// order, NaN where undefined; each row is capacity-capped.
	Rows [][]float64
	// product is the exact product of the block's Definition 8 counts.
	product core.AssignmentsProduct
	// cells backs Rows in a recycled block; nil in a table's block.
	cells []float64
}

// touch reads each offer's start, its totals and its first and last
// slices. The loads are independent of each other, so the CPU overlaps
// their cache misses; MeasureRow, which chases the same pointers one
// offer at a time, then finds them in cache. A fleet re-submitted
// offer by offer sits scattered over the heap, where those misses
// dominate a row. It is not inlined, so the loads survive though
// callers drop the sum.
//
//go:noinline
func touch(offers []*FlexOffer) int64 {
	var sum int64
	for _, f := range offers {
		sum += f.TotalMax + int64(f.EarliestStart)
		if n := len(f.Slices); n > 0 {
			sum += f.Slices[0].Max + f.Slices[n-1].Min
		}
	}
	return sum
}

// measureBlocksKept bounds the blocks kept for reuse between calls. A
// consumer that keeps up with the workers, as GET /v1/measures does,
// holds two or three blocks at a time on a 2-CPU, two-shard server;
// the rare call that piles up more allocates the excess afresh.
const measureBlocksKept = 4

// measureBlockFree recycles MeasuresEach's blocks, rows and cells
// together, across calls.
var measureBlockFree = pool.NewFree(measureBlocksKept, func() *MeasureBlock {
	const w = core.RowWidth
	b := &MeasureBlock{cells: make([]float64, MeasuresBlock*w), Rows: make([][]float64, MeasuresBlock)}
	for i := range b.Rows {
		b.Rows[i] = b.cells[i*w : (i+1)*w : (i+1)*w]
	}
	return b
})

// Release hands a block that MeasuresEach passed to its callback back
// for reuse by later calls. Neither the block nor its rows may be used
// afterwards. Releasing is optional: an unreleased block is garbage,
// and so is a released one beyond the few kept.
func (b *MeasureBlock) Release() {
	if b.cells == nil {
		return
	}
	b.Rows = b.Rows[:MeasuresBlock]
	measureBlockFree.Put(b)
}

// MeasuresEach is the measures evaluator behind GET /v1/measures. It
// touches each offer once: core.MeasureRow fills the offer's row and
// folds its exact assignments count into its block's product, in
// contiguous blocks of MeasuresBlock offers fanned out across the
// shard pools. Each block is a recycled MeasureBlock, handed to each
// on the worker that filled it as soon as it is done — concurrently
// for different blocks and in no particular order. The callback owns
// the block from then on: it adds it to a MeasureSetFold in offer
// order to get the set row, and may Release it once done with it, so
// a call allocates O(blocks), not O(offers). A cancelled context
// skips the blocks not yet started, and their callbacks, and is
// reported as the error.
func (e *Engine) MeasuresEach(ctx context.Context, offers []*FlexOffer, each func(*MeasureBlock), opts ...Option) error {
	return e.measureBlocks(ctx, offers, e.resolve(opts).norm, func(k int) *MeasureBlock {
		b := measureBlockFree.Get()
		b.Lo = k * MeasuresBlock
		b.Rows = b.Rows[:min(MeasuresBlock, len(offers)-b.Lo)]
		b.product = core.AssignmentsProduct{}
		return b
	}, each)
}

// measureBlocks evaluates every block k of offers into block(k) on the
// shard pools, then passes it to each (when non-nil). Every participant
// of every pool claims the next block from one shared cursor, so blocks
// finish close to offer order and an in-order consumer holds only a
// few of them at a time.
func (e *Engine) measureBlocks(ctx context.Context, offers []*FlexOffer, n Norm, block func(k int) *MeasureBlock, each func(*MeasureBlock)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, sp := obs.Start(ctx, obs.StageMeasures)
	defer sp.End()
	done := ctx.Done()
	var next atomic.Int64
	e.forBlocks((len(offers)+MeasuresBlock-1)/MeasuresBlock, func(k, blo, bhi int) {
		e.runIndexed(k, bhi-blo, func(int) {
			select {
			case <-done:
				return
			default:
			}
			b := block(int(next.Add(1) - 1))
			part := offers[b.Lo : b.Lo+len(b.Rows)]
			touch(part)
			for j, row := range b.Rows {
				core.MeasureRow(row, part[j], n, &b.product)
			}
			if each != nil {
				each(b)
			}
		})
	})
	return ctx.Err()
}

// MeasureSetFold folds the set-level row of a measure table from its
// blocks, added in offer order. Summing column j in offer order from
// +0 repeats the additions of the measures' summation SetValue
// exactly, and an offer whose value failed is NaN in its row, so the
// sum is NaN where SetValue would fail: the fold is bit-identical to
// m.SetValue without evaluating any measure a second time. The sums
// are ordered because float addition in another order could round
// differently. The relative area measure averages its sum; the
// assignments measure is the merged exact block products. The zero
// value is the fold of no blocks.
type MeasureSetFold struct {
	sum [core.RowWidth]float64
	n   int
	p   core.AssignmentsProduct
}

// Add folds in the next block in offer order.
func (s *MeasureSetFold) Add(b *MeasureBlock) {
	for _, row := range b.Rows {
		for j, v := range row[:core.RowWidth] {
			s.sum[j] += v
		}
	}
	s.n += len(b.Rows)
	s.p.Merge(&b.product)
}

// Values returns the set row of the blocks added so far. An empty
// fleet has no set values (ErrEmptySet): every cell is NaN.
func (s *MeasureSetFold) Values() []float64 {
	set := make([]float64, core.RowWidth)
	if s.n == 0 {
		for j := range set {
			set[j] = math.NaN()
		}
		return set
	}
	copy(set, s.sum[:])
	set[core.CellAssignments] = s.p.Value()
	set[core.CellRelativeArea] /= float64(s.n)
	return set
}

// MeasuresRouted is Measures over pre-routed parts, flattened back
// into store order (rows are order-sensitive output).
func (e *Engine) MeasuresRouted(ctx context.Context, parts [][]RoutedOffer, opts ...Option) (*MeasureTable, error) {
	return e.Measures(ctx, shard.Flatten(parts), opts...)
}

// measureSet is AllMeasures with the given norm applied to the vector
// and series measures (keeping the aligned series variant, whose
// behaviour matches every Table 1 cell).
func measureSet(n Norm) []Measure {
	return []Measure{
		core.TimeMeasure{},
		core.EnergyMeasure{},
		core.ProductMeasure{},
		core.VectorMeasure{NormKind: timeseries.Norm(n)},
		core.SeriesMeasure{NormKind: timeseries.Norm(n), Aligned: true},
		core.AssignmentsMeasure{},
		core.AbsoluteAreaMeasure{},
		core.RelativeAreaMeasure{},
	}
}
