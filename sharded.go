package flex

import (
	"context"
	"errors"
	"slices"
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
// shard pools in contiguous blocks — the aggregation stage of
// AggregateRouted and the stateless pipeline.
func (e *Engine) scatterAggregateGroups(ctx context.Context, groups [][]*FlexOffer, o engineOptions) ([]*Aggregated, error) {
	ags, _, err := e.scatterAggregateFrom(ctx, groups, aggregate.Sources{}, o)
	return ags, err
}

// scatterAggregateFrom is scatterAggregateGroups copying member
// layouts from src (the incremental pipeline's miss aggregation). It
// also returns how many layouts it copied.
func (e *Engine) scatterAggregateFrom(ctx context.Context, groups [][]*FlexOffer, src aggregate.Sources, o engineOptions) ([]*Aggregated, int, error) {
	n := len(groups)
	if n == 0 {
		// The parallel stage's empty result (an empty, non-nil slice) is
		// the one every empty aggregation reports.
		return e.aggregateBlock(ctx, 0, groups, src, o)
	}
	out := make([]*Aggregated, n)
	errs := make([]error, len(e.pools))
	reused := make([]int, len(e.pools))
	e.forBlocks(n, func(k, lo, hi int) {
		// Each shard's block aggregates under its own shard-labeled
		// span (started inside aggregateBlock's parallel stage).
		ags, r, err := e.aggregateBlock(obs.WithShard(ctx, k), k, groups[lo:hi], src.Block(lo, hi), o)
		if err != nil {
			errs[k] = offsetBlockErr(err, lo)
			return
		}
		copy(out[lo:hi], ags)
		reused[k] = r
	})
	if err := mergeBlockErrs(errs, o.errMode); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	total := 0
	for _, r := range reused {
		total += r
	}
	return out, total, nil
}

// aggregateBlock aggregates a block of groups on shard k's pool under
// the resolved option set, copying member layouts from src.
func (e *Engine) aggregateBlock(ctx context.Context, k int, groups [][]*FlexOffer, src aggregate.Sources, o engineOptions) ([]*Aggregated, int, error) {
	return aggregate.AggregateGroupsFromParallel(ctx, groups, src, o.safe, e.parallelParams(k, o))
}

// scatterGroup is the scatter-gather grouping stage: each non-empty
// part is stable-sorted by the grouping key on its shard's pool (the
// parts run concurrently with each other), the runs are merged by
// (est, tf, seq) into the global stable grouping order, and the merged
// run is greedily packed — in parallel per EST-gap segment when the
// cut produces more than one (grouping.PackSorted, the same pack
// grouping.Sharded runs). With cached set (incremental calls) the sort
// starts from the previous call's order (see scatterSort). With a
// custom Grouper installed the parts are flattened back into store
// order and handed to it whole.
func (e *Engine) scatterGroup(ctx context.Context, parts [][]RoutedOffer, o engineOptions, cached bool) ([][]*FlexOffer, error) {
	if o.grouper != nil {
		return o.grouper.Group(ctx, shard.Flatten(parts))
	}
	merged := e.scatterSort(ctx, parts, o, cached)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if merged.Len() == 0 {
		return nil, nil
	}
	return grouping.PackSorted(ctx, merged.Offers, merged.ESTs, merged.TFs, o.group, e.executor(0), o.workers)
}

// orderState is one call's grouping order: the parts it sorted and
// their merged run.
type orderState struct {
	parts  [][]RoutedOffer
	merged shard.Run
}

// orderCache carries the grouping order across incremental calls, so a
// call re-sorts only the entries that changed since the previous one.
// Calls read the last state and publish their own under the mutex but
// sort without holding it; whichever call publishes last is the base
// of the next. Holding the previous parts keeps their offers alive, so
// no offer address seen by the previous call can be reused by a new
// offer.
type orderCache struct {
	mu    sync.Mutex
	last  orderState
	delta int
}

func (c *orderCache) load() orderState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

func (c *orderCache) store(st orderState, delta int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last, c.delta = st, delta
}

// scatterSort produces the merged grouping order of the parts. Without
// cached it sorts every part from scratch; with it, it starts from the
// order the previous cached call published and publishes its own. Both
// run one code path, sortFrom, which without a previous order counts
// every entry as added.
func (e *Engine) scatterSort(ctx context.Context, parts [][]RoutedOffer, o engineOptions, cached bool) shard.Run {
	ctx, sp := obs.Start(ctx, obs.StageGroupSort)
	defer sp.End()
	if !cached {
		run, _, _ := e.sortFrom(ctx, orderState{}, parts, o)
		return run
	}
	prev := e.order.load()
	run, delta, ok := e.sortFrom(ctx, prev, parts, o)
	if !ok {
		// An entry the previous order held is not where its key puts
		// it: an offer was modified in place, against the contract.
		// Sorting from scratch is always right.
		run, delta, _ = e.sortFrom(ctx, orderState{}, parts, o)
	}
	e.order.store(orderState{parts: append([][]RoutedOffer(nil), parts...), merged: run}, delta)
	return run
}

// sortFrom updates prev's merged order to the parts'. Every shard
// diffs its part against prev's on its own pool (diffPart) and sorts
// its added entries with grouping.SortRun; the removed entries are
// then cut out of prev's merged run and the added runs merged in
// (shard.MergeDelta). Each non-empty or previously non-empty part gets
// a shard-labeled child span. It reports the merged run, the number of
// entries removed plus added, and false when a removed entry was not
// found in prev's run.
func (e *Engine) sortFrom(ctx context.Context, prev orderState, parts [][]RoutedOffer, o engineOptions) (shard.Run, int, bool) {
	if len(prev.parts) != len(parts) {
		prev = orderState{}
	}
	added := make([]shard.Run, len(parts))
	removed := make([][]RoutedOffer, len(parts))
	var ks []int
	for k := range parts {
		if len(parts[k]) > 0 || (prev.parts != nil && len(prev.parts[k]) > 0) {
			ks = append(ks, k)
		}
	}
	fanOut(ks, func(k int) {
		_, ssp := obs.Start(obs.WithShard(ctx, k), obs.StageGroupSort)
		defer ssp.End()
		var old, add []RoutedOffer
		if prev.parts != nil {
			old = prev.parts[k]
		}
		removed[k], add = diffPart(old, parts[k])
		if len(add) > 0 {
			added[k] = sortEntries(add, e.executor(k), o.workers)
		}
	})
	delta := 0
	for k := range parts {
		delta += len(removed[k]) + added[k].Len()
	}
	drop := make([]int, 0, delta)
	for _, rem := range removed {
		for _, en := range rem {
			f := en.Offer
			p := prev.merged.Search(f.EarliestStart, f.TimeFlexibility(), en.Seq)
			if p == prev.merged.Len() || prev.merged.Seqs[p] != en.Seq || prev.merged.Offers[p] != f {
				return shard.Run{}, 0, false
			}
			drop = append(drop, p)
		}
	}
	slices.Sort(drop)
	return shard.MergeDelta(prev.merged, drop, added), delta, true
}

// diffPart compares one shard's previous entries with its current ones
// in Seq lockstep: an entry with the same Seq and the same offer
// pointer is kept, anything else is removed from old or added from
// cur. The store never rewrites a position a snapshot can see, so when
// both share a backing array their common prefix is unchanged: an
// unchanged part costs nothing, and appends made in place cost only
// the appended entries.
func diffPart(old, cur []RoutedOffer) (removed, added []RoutedOffer) {
	i, j := 0, 0
	if len(old) > 0 && len(cur) > 0 && &old[0] == &cur[0] {
		i = min(len(old), len(cur))
		j = i
	}
	for i < len(old) && j < len(cur) {
		switch a, b := old[i], cur[j]; {
		case a.Seq == b.Seq:
			if a.Offer != b.Offer {
				removed = append(removed, a)
				added = append(added, b)
			}
			i++
			j++
		case a.Seq < b.Seq:
			removed = append(removed, a)
			i++
		default:
			added = append(added, b)
			j++
		}
	}
	removed = append(removed, old[i:]...)
	if added == nil {
		return removed, cur[j:]
	}
	return removed, append(added, cur[j:]...)
}

// sortEntries stable-sorts Seq-ascending entries by the grouping key
// into a run (a stable (est, tf) sort of them is in (est, tf, seq)
// order), deriving the keys on ex.
func sortEntries(entries []RoutedOffer, ex Executor, workers int) shard.Run {
	offers := make([]*FlexOffer, len(entries))
	seqs := make([]uint64, len(entries))
	for i, en := range entries {
		offers[i] = en.Offer
		seqs[i] = en.Seq
	}
	perm, ests, tfs := grouping.SortRun(offers, ex, workers)
	run := shard.Run{
		Offers: make([]*FlexOffer, len(entries)),
		Seqs:   make([]uint64, len(entries)),
		ESTs:   make([]int, len(entries)),
		TFs:    make([]int, len(entries)),
	}
	for i, pi := range perm {
		run.Offers[i] = offers[pi]
		run.Seqs[i] = seqs[pi]
		run.ESTs[i] = ests[pi]
		run.TFs[i] = tfs[pi]
	}
	return run
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
