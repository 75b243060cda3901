package aggregate

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/pool"
)

// This file implements the parallel aggregation pipeline: grouping output
// is sharded across a pool of workers, each aggregating whole groups
// independently. Aggregation is embarrassingly parallel across groups —
// groups share no state and Aggregate is deterministic — so the parallel
// pipeline produces results identical to the serial AggregateAll, in the
// same group order, for any worker count. That invariant is enforced by
// the equivalence property test in parallel_test.go.

// ErrorMode selects how the parallel pipeline reports per-group failures.
type ErrorMode int

const (
	// FirstError stops the pipeline at the first failing group and
	// returns that group's *GroupError. When several groups fail near-
	// simultaneously, the lowest-indexed error observed before the
	// pipeline drained is returned; which groups were reached depends on
	// scheduling.
	FirstError ErrorMode = iota
	// CollectAll aggregates every group regardless of failures and
	// returns all failures together as GroupErrors, sorted by group
	// index. Use it to triage a large batch in one pass.
	CollectAll
)

// String names the error mode.
func (m ErrorMode) String() string {
	switch m {
	case FirstError:
		return "first-error"
	case CollectAll:
		return "collect-all"
	default:
		return fmt.Sprintf("ErrorMode(%d)", int(m))
	}
}

// Executor abstracts the execution substrate a parallel call submits
// its index loop to. The pool package's persistent *Pool implements it;
// a nil Executor means per-call goroutine spin-up. It is an alias of
// pool.Executor so the ingest package's decode shards and this
// package's group fan-outs share one substrate type.
type Executor = pool.Executor

// ParallelParams controls the worker pool of the parallel aggregation
// pipeline. The zero value spins up one goroutine per logical CPU for
// the call, with automatic batching and FirstError reporting.
type ParallelParams struct {
	// Workers is the number of concurrent aggregation workers; values
	// below 1 mean runtime.GOMAXPROCS(0). The pipeline never uses more
	// workers than there are groups. When Pool is set — as the Engine
	// does — Workers instead caps this call's share of the pool and
	// cannot exceed the pool's own size.
	Workers int
	// BatchSize is the number of consecutive groups a worker claims at
	// a time. Larger batches amortize coordination; smaller batches
	// balance skewed group sizes. Values below 1 pick a batch that
	// spreads the groups roughly 4× over the workers.
	BatchSize int
	// ErrorMode selects first-error or collect-all failure reporting.
	ErrorMode ErrorMode
	// Pool, when non-nil, submits the group loop to a persistent
	// executor instead of spawning Workers goroutines for this one call
	// — the Engine's long-lived execution model, which removes
	// per-request pool setup from the hot path.
	Pool Executor
}

// forEach runs fn(i) for every group index in [0, n) under the
// params' execution model: the persistent pool when one is attached
// (which records pool_queue spans under ctx for the helpers it
// enlists), otherwise per-call goroutine spin-up. Results land in
// per-index slots, so output never depends on which worker claimed
// which batch.
func (pp ParallelParams) forEach(ctx context.Context, n int, fn func(int)) {
	if pp.Pool != nil {
		pp.Pool.ForEachCtx(ctx, n, pp.Workers, pp.BatchSize, fn)
		return
	}
	pool.Run(n, pp.Workers, pp.BatchSize, fn)
}

// GroupError reports the failure of one group in a batched aggregation,
// carrying enough context to identify the group in a 10k-group batch:
// its index in grouping order, its size, and the ID of its first
// constituent.
type GroupError struct {
	// Group is the index of the failing group in grouping output order.
	Group int
	// Size is the number of constituents in the group.
	Size int
	// FirstID is the ID of the group's first constituent ("" if unset).
	FirstID string
	// Err is the underlying aggregation error.
	Err error
}

// newGroupError wraps err with the identifying context of group i.
func newGroupError(i int, group []*flexoffer.FlexOffer, err error) *GroupError {
	ge := &GroupError{Group: i, Size: len(group), Err: err}
	if len(group) > 0 {
		ge.FirstID = group[0].ID
	}
	return ge
}

// Error identifies the group and preserves the underlying message.
func (e *GroupError) Error() string {
	if e.FirstID != "" {
		return fmt.Sprintf("aggregate: group %d (%d offers, first %q): %v", e.Group, e.Size, e.FirstID, e.Err)
	}
	return fmt.Sprintf("aggregate: group %d (%d offers): %v", e.Group, e.Size, e.Err)
}

// Unwrap exposes the underlying error to errors.Is and errors.As.
func (e *GroupError) Unwrap() error { return e.Err }

// GroupErrors is the CollectAll failure report: every failing group's
// error, sorted by group index.
type GroupErrors []*GroupError

// Error summarizes the failure count and lists the first few groups.
func (es GroupErrors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "aggregate: %d groups failed:", len(es))
	for i, e := range es {
		if i == 4 {
			fmt.Fprintf(&b, " …(%d more)", len(es)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %v", e)
	}
	return b.String()
}

// Unwrap exposes the per-group errors to errors.Is and errors.As.
func (es GroupErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// AggregateGroupsParallel aggregates pre-computed groups (from any
// grouping strategy) concurrently, preserving group order.
func AggregateGroupsParallel(ctx context.Context, groups [][]*flexoffer.FlexOffer, pp ParallelParams) ([]*Aggregated, error) {
	ags, _, err := aggregateGroupsParallel(ctx, groups, validated.aggregate, Sources{}, pp)
	return ags, err
}

// AggregateGroupsSafeParallel is AggregateGroupsParallel using
// AggregateSafe per group (every valid aggregate assignment
// disaggregates).
func AggregateGroupsSafeParallel(ctx context.Context, groups [][]*flexoffer.FlexOffer, pp ParallelParams) ([]*Aggregated, error) {
	ags, _, err := aggregateGroupsParallel(ctx, groups, tightened.aggregate, Sources{}, pp)
	return ags, err
}

// AggregateGroupsFromParallel is AggregateGroupsSafeParallel when safe
// is set and AggregateGroupsParallel otherwise, with each member's
// layout copied from src where src holds it (see Prior). The aggregates
// and errors are the same as without src. It also returns how many
// member layouts it copied.
func AggregateGroupsFromParallel(ctx context.Context, groups [][]*flexoffer.FlexOffer, src Sources, safe bool, pp ParallelParams) ([]*Aggregated, int, error) {
	mode := validated
	if safe {
		mode = tightened
	}
	return aggregateGroupsParallel(ctx, groups, mode.aggregate, src, pp)
}

// aggregateGroupsParallel shards the groups across the worker pool,
// aggregating group i with agg from its source in src: each aggregate
// and each failure lands in its group's slot, so neither output order
// nor error reporting depends on scheduling. Failures are wrapped with
// newGroupError exactly like the serial path. After cancellation (or,
// in FirstError mode, a failure) the remaining groups are skipped, not
// aggregated.
func aggregateGroupsParallel(ctx context.Context, groups [][]*flexoffer.FlexOffer, agg func([]*flexoffer.FlexOffer, source) (*Aggregated, int, error), src Sources, pp ParallelParams) ([]*Aggregated, int, error) {
	n := len(groups)
	if src.Starts != nil && len(src.Starts) != n {
		return nil, 0, fmt.Errorf("aggregate: %d source cursors for %d groups", len(src.Starts), n)
	}
	out := make([]*Aggregated, n)
	if n == 0 {
		return out, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ctx, sp := obs.Start(ctx, obs.StageAggregate)
	defer sp.End()
	errSlots := make([]*GroupError, n)
	var failed atomic.Bool
	var reused atomic.Int64
	done := ctx.Done()
	pp.forEach(ctx, n, func(i int) {
		if pp.ErrorMode == FirstError && failed.Load() {
			return
		}
		select {
		case <-done:
			return
		default:
		}
		ag, r, err := agg(groups[i], src.of(i))
		if err != nil {
			errSlots[i] = newGroupError(i, groups[i], err)
			failed.Store(true)
			return
		}
		if r > 0 {
			reused.Add(int64(r))
		}
		out[i] = ag
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if err := collectFailures(errSlots, pp.ErrorMode); err != nil {
		return nil, 0, err
	}
	return out, int(reused.Load()), nil
}

// collectFailures folds per-index failure slots into the mode's error
// shape: the lowest-indexed failure alone (FirstError) or all of them
// sorted by index (CollectAll). Nil when nothing failed.
func collectFailures(errSlots []*GroupError, mode ErrorMode) error {
	var errs GroupErrors
	for _, e := range errSlots {
		if e != nil {
			errs = append(errs, e)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	if mode == FirstError {
		return errs[0]
	}
	return errs
}

// DisaggregateAllParallel maps scheduled aggregate assignments back to
// their constituents concurrently: assignments[i] must be a valid
// assignment of ags[i].Offer, and out[i] holds one assignment per
// ags[i].Constituents in constituent order. Per-aggregate repair shares
// no state across aggregates, so the fan-out is the same worker-pool
// shape as the aggregation pipeline, with identical determinism (each
// result lands in its own slot) and failure reporting (GroupError /
// GroupErrors keyed by aggregate index).
func DisaggregateAllParallel(ctx context.Context, ags []*Aggregated, assignments []flexoffer.Assignment, pp ParallelParams) ([][]flexoffer.Assignment, error) {
	if len(assignments) != len(ags) {
		return nil, fmt.Errorf("aggregate: %d assignments for %d aggregates", len(assignments), len(ags))
	}
	n := len(ags)
	out := make([][]flexoffer.Assignment, n)
	if n == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, obs.StageDisaggregate)
	defer sp.End()
	errSlots := make([]*GroupError, n)
	var failed atomic.Bool
	done := ctx.Done()
	pp.forEach(ctx, n, func(i int) {
		if pp.ErrorMode == FirstError && failed.Load() {
			return
		}
		select {
		case <-done:
			return
		default:
		}
		parts, err := ags[i].Disaggregate(assignments[i])
		if err != nil {
			errSlots[i] = newGroupError(i, ags[i].Constituents, err)
			failed.Store(true)
			return
		}
		out[i] = parts
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := collectFailures(errSlots, pp.ErrorMode); err != nil {
		return nil, err
	}
	return out, nil
}
