package flex

import (
	"context"
	"errors"
	"sort"
	"sync"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/shard"
)

// This file holds the Engine's scatter-gather stages: each one splits
// its work across the shards (by routed part or by contiguous block),
// runs every shard's share on that shard's pool, and gathers the
// results in a fixed order, so the output never depends on the shard
// or worker count.

// blockBounds splits n work items into one contiguous block per shard:
// bounds[k]..bounds[k+1] is shard k's block. Contiguity is what makes
// re-indexing a block's output a single offset add.
func blockBounds(n, shards int) []int {
	bounds := make([]int, shards+1)
	for k := 0; k <= shards; k++ {
		bounds[k] = k * n / shards
	}
	return bounds
}

// forBlocks splits n work items into one contiguous block per shard and
// runs fn(k, lo, hi) for every non-empty block concurrently (see
// fanOut), returning once all have finished.
func (e *Engine) forBlocks(n int, fn func(k, lo, hi int)) {
	bounds := blockBounds(n, len(e.pools))
	var ks []int
	for k := range e.pools {
		if bounds[k] < bounds[k+1] {
			ks = append(ks, k)
		}
	}
	fanOut(ks, func(k int) { fn(k, bounds[k], bounds[k+1]) })
}

// fanOut runs fn(k) for every k in ks concurrently: each but the last
// on a goroutine of its own, the last on the calling goroutine, so a
// one-shard engine never hands its work to another goroutine. It
// returns once every call has finished.
func fanOut(ks []int, fn func(k int)) {
	if len(ks) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, k := range ks[:len(ks)-1] {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(k)
	}
	fn(ks[len(ks)-1])
	wg.Wait()
}

// scatterAggregateGroups fans per-group aggregation out across the
// shard pools in contiguous blocks — the materialized counterpart of
// scatterAggregateStream, shared by AggregateRouted and the incremental
// pipeline's miss aggregation.
func (e *Engine) scatterAggregateGroups(ctx context.Context, groups [][]*FlexOffer, o engineOptions) ([]*Aggregated, error) {
	n := len(groups)
	if n == 0 {
		// The parallel stage's empty result (an empty, non-nil slice) is
		// the one every empty aggregation reports.
		return e.aggregateBlock(ctx, 0, groups, o)
	}
	out := make([]*Aggregated, n)
	errs := make([]error, len(e.pools))
	e.forBlocks(n, func(k, lo, hi int) {
		// Each shard's block aggregates under its own shard-labeled
		// span (started inside aggregateBlock's parallel stage).
		ags, err := e.aggregateBlock(obs.WithShard(ctx, k), k, groups[lo:hi], o)
		if err != nil {
			errs[k] = offsetBlockErr(err, lo)
			return
		}
		copy(out[lo:hi], ags)
	})
	if err := mergeBlockErrs(errs, o.errMode); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// aggregateBlock aggregates a block of groups on shard k's pool under
// the resolved option set.
func (e *Engine) aggregateBlock(ctx context.Context, k int, groups [][]*FlexOffer, o engineOptions) ([]*Aggregated, error) {
	pp := e.parallelParams(k, o)
	if o.safe {
		return aggregate.AggregateGroupsSafeParallel(ctx, groups, pp)
	}
	return aggregate.AggregateGroupsParallel(ctx, groups, pp)
}

// scatterGroup is the scatter-gather grouping stage: each non-empty
// part is stable-sorted by the grouping key on its shard's pool (the
// parts run concurrently with each other), the runs are k-way merged
// by (est, tf, seq) into the global stable grouping order, and the
// merged run is greedily packed — in parallel per EST-gap segment when
// the cut produces more than one (grouping.PackSorted, the same pack
// grouping.Sharded runs). With a custom Grouper installed the parts
// are flattened back into store order and handed to it whole.
func (e *Engine) scatterGroup(ctx context.Context, parts [][]RoutedOffer, o engineOptions) ([][]*FlexOffer, error) {
	if o.grouper != nil {
		return o.grouper.Group(ctx, shard.Flatten(parts))
	}
	merged := e.scatterSort(ctx, parts, o)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if merged.Len() == 0 {
		return nil, nil
	}
	return grouping.PackSorted(ctx, merged.Offers, merged.ESTs, merged.TFs, o.group, e.executor(0), o.workers)
}

// scatterSort sorts every part on its shard's pool and merges the
// runs. The whole stage runs under one group_sort span with a
// shard-labeled child per non-empty part, so a trace shows both the
// critical path (parent) and the per-shard skew (children).
func (e *Engine) scatterSort(ctx context.Context, parts [][]RoutedOffer, o engineOptions) shard.Run {
	ctx, sp := obs.Start(ctx, obs.StageGroupSort)
	defer sp.End()
	runs := make([]shard.Run, len(parts))
	var ks []int
	for k := range parts {
		if len(parts[k]) > 0 {
			ks = append(ks, k)
		}
	}
	fanOut(ks, func(k int) {
		_, ssp := obs.Start(obs.WithShard(ctx, k), obs.StageGroupSort)
		defer ssp.End()
		part := parts[k]
		offers := make([]*FlexOffer, len(part))
		seqs := make([]uint64, len(part))
		for i, en := range part {
			offers[i] = en.Offer
			seqs[i] = en.Seq
		}
		perm, ests, tfs := grouping.SortRun(offers, e.executor(k), o.workers)
		run := shard.Run{
			Offers: make([]*FlexOffer, len(part)),
			Seqs:   make([]uint64, len(part)),
			ESTs:   make([]int, len(part)),
			TFs:    make([]int, len(part)),
		}
		for i, pi := range perm {
			run.Offers[i] = offers[pi]
			run.Seqs[i] = seqs[pi]
			run.ESTs[i] = ests[pi]
			run.TFs[i] = tfs[pi]
		}
		runs[k] = run
	})
	return shard.MergeRuns(runs)
}

// scatterAggregateStream fans per-group aggregation out across the
// shard pools in contiguous blocks and merges the blocks' streams
// into one channel feeding the global scheduler, re-indexing every
// item by its block offset. The merged channel is buffered to the
// group count, so forwarders never block and abandoning the stream
// mid-way leaks nothing; block producers are likewise buffered.
func (e *Engine) scatterAggregateStream(ctx context.Context, groups [][]*FlexOffer, o engineOptions) (<-chan aggregate.StreamItem, int) {
	n := len(groups)
	merged := make(chan aggregate.StreamItem, n)
	bounds := blockBounds(n, len(e.pools))
	// One parent aggregate span covers the whole fan-out; each shard's
	// block stream starts its own shard-labeled child. The parent ends
	// just before the merged channel closes, so draining the stream is
	// enough to see it completed (PipelineRouted does).
	actx, asp := obs.Start(ctx, obs.StageAggregate)
	var wg sync.WaitGroup
	for k := range e.pools {
		lo, hi := bounds[k], bounds[k+1]
		if lo == hi {
			continue
		}
		pp := e.parallelParams(k, o)
		sctx := obs.WithShard(actx, k)
		var items <-chan aggregate.StreamItem
		if o.safe {
			items, _ = aggregate.AggregateGroupsSafeStream(sctx, groups[lo:hi], pp)
		} else {
			items, _ = aggregate.AggregateGroupsStream(sctx, groups[lo:hi], pp)
		}
		wg.Add(1)
		go func(off int, items <-chan aggregate.StreamItem) {
			defer wg.Done()
			for it := range items {
				it.Index += off
				it.Err = offsetGroupErr(it.Err, off)
				merged <- it
			}
		}(lo, items)
	}
	go func() {
		wg.Wait()
		asp.End()
		close(merged)
	}()
	return merged, n
}

// scatterDisaggregate fans disaggregation out across the shard pools
// in contiguous aggregate blocks and stitches the per-constituent
// assignments back together in aggregate order.
func (e *Engine) scatterDisaggregate(ctx context.Context, ags []*Aggregated, assignments []Assignment, o engineOptions) ([][]Assignment, error) {
	n := len(ags)
	if n == 0 || len(assignments) != n {
		// The trivial and malformed cases report the parallel stage's
		// own result and error.
		return aggregate.DisaggregateAllParallel(ctx, ags, assignments, e.parallelParams(0, o))
	}
	ctx, sp := obs.Start(ctx, obs.StageDisaggregate)
	defer sp.End()
	out := make([][]Assignment, n)
	errs := make([]error, len(e.pools))
	e.forBlocks(n, func(k, lo, hi int) {
		parts, err := aggregate.DisaggregateAllParallel(obs.WithShard(ctx, k), ags[lo:hi], assignments[lo:hi], e.parallelParams(k, o))
		if err != nil {
			errs[k] = offsetBlockErr(err, lo)
			return
		}
		copy(out[lo:hi], parts)
	})
	if err := mergeBlockErrs(errs, o.errMode); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// offsetGroupErr shifts a streamed group failure by its block offset so
// the merged stream reports global group indices.
func offsetGroupErr(err *aggregate.GroupError, off int) *aggregate.GroupError {
	if err == nil || off == 0 {
		return err
	}
	ge := *err
	ge.Group += off
	return &ge
}

// offsetBlockErr shifts the group indices inside a block's error by
// the block offset, leaving non-group errors (context cancellation)
// untouched.
func offsetBlockErr(err error, off int) error {
	if off == 0 {
		return err
	}
	var ges aggregate.GroupErrors
	if errors.As(err, &ges) {
		out := make(aggregate.GroupErrors, len(ges))
		for i, e := range ges {
			c := *e
			c.Group += off
			out[i] = &c
		}
		return out
	}
	var ge *aggregate.GroupError
	if errors.As(err, &ge) {
		c := *ge
		c.Group += off
		return &c
	}
	return err
}

// mergeBlockErrs combines per-block failures into one error under the
// error mode: first-error keeps the lowest block's error (blocks are
// index-ordered, so that is the lowest-indexed failure region);
// collect-all concatenates every block's group errors sorted by global
// group index, with non-group errors (cancellation) taking precedence.
func mergeBlockErrs(errs []error, mode ErrorMode) error {
	if mode != CollectAll {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	var all aggregate.GroupErrors
	var other error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ges aggregate.GroupErrors
		var ge *aggregate.GroupError
		switch {
		case errors.As(err, &ges):
			all = append(all, ges...)
		case errors.As(err, &ge):
			all = append(all, ge)
		default:
			if other == nil {
				other = err
			}
		}
	}
	if other != nil {
		return other
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Group < all[j].Group })
	return all
}
