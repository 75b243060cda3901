package grouping

import (
	"context"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/pool"
)

// This file implements the parallel sharded grouper. The serial
// threshold grouper (grouping.go) is a sort followed by one greedy pack
// over the sorted order — after PRs 1–4 parallelized every downstream
// stage, that pass was the pipeline's last serial fraction. The sharded
// grouper runs it in three phases, the first and last parallel, each
// bit-identical to its serial counterpart:
//
//  1. Key derivation fans out across the executor (independent per
//     offer).
//  2. The stable (est, tf) sort is one O(n) LSD radix sort
//     (radixPerm). A stable sort has exactly one output for given
//     keys, so the permutation is the serial grouper's for every
//     worker count.
//  3. The sorted order is cut into shards at every earliest-start gap
//     wider than ESTTolerance. A group's earliest-start spread is
//     bounded by the tolerance, so no group can span such a gap — the
//     serial greedy pack provably flushes there — which makes the
//     shards independent: packing each one separately and
//     concatenating the outputs in shard order reproduces the serial
//     pack bit for bit. The property tests in parallel_test.go pin
//     this against the serial oracle.
//
// When no gap exists (every offer is EST-connected to the next, e.g. a
// huge tolerance or densely overlapping spans) the pack phase is
// inherently sequential; the grouper then documents its fallback by
// running the serial pack over the sort's output. Small inputs (below
// MinOffers) skip the machinery entirely.

// Sharded is the parallel implementation of the threshold strategy:
// output is bit-identical to Group(offers, Params) for every worker
// count, pool, and input size. The zero value is a valid serial-ish
// grouper; attach an Engine's pool via Pool for the persistent
// execution model.
type Sharded struct {
	// Params are the threshold tolerances, as in Group.
	Params Params
	// Pool, when non-nil, submits the fan-out phases to a persistent
	// executor (an Engine's pool); nil spins up goroutines per call.
	Pool pool.Executor
	// Workers caps the grouper's parallelism; values below 1 mean one
	// worker per logical CPU (or the pool's full width).
	Workers int
	// MinOffers is the input size below which Group simply runs the
	// serial grouper — sharding overhead dominates tiny inputs. 0
	// picks the default (2048); negative always takes the sharded
	// path (the property tests force it).
	MinOffers int
}

// defaultMinOffers is the input size under which sharding is not worth
// the coordination.
const defaultMinOffers = 2048

func (s *Sharded) minOffers() int {
	switch {
	case s.MinOffers > 0:
		return s.MinOffers
	case s.MinOffers < 0:
		return 0
	default:
		return defaultMinOffers
	}
}

// forEach fans fn over [0, n) under the grouper's execution model.
func (s *Sharded) forEach(n, batch int, fn func(int)) {
	if s.Pool != nil {
		s.Pool.ForEach(n, s.Workers, batch, fn)
		return
	}
	pool.Run(n, s.Workers, batch, fn)
}

// Group implements Grouper. The result is bit-identical to
// Group(offers, s.Params); only the work distribution differs.
func (s *Sharded) Group(ctx context.Context, offers []*flexoffer.FlexOffer) ([][]*flexoffer.FlexOffer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(offers) == 0 {
		return nil, nil
	}
	if len(offers) < s.minOffers() {
		return groupTraced(ctx, offers, s.Params), nil
	}
	sorted, ests, tfs := s.sortKeys(ctx, offers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return PackSorted(ctx, sorted, ests, tfs, s.Params, s.Pool, s.Workers)
}

// sortKeys derives the keys and returns the offers in stable (est, tf)
// order together with their keys in that order. The whole phase is one
// group_sort span; the ctx is used only for tracing.
func (s *Sharded) sortKeys(ctx context.Context, offers []*flexoffer.FlexOffer) (sorted []*flexoffer.FlexOffer, sortedEST, sortedTF []int) {
	_, sp := obs.Start(ctx, obs.StageGroupSort)
	defer sp.End()
	perm, ests, tfs := SortRun(offers, s.Pool, s.Workers)
	return sortedBy(perm, offers, ests, tfs)
}

// PackSorted greedily packs an already stably (est, tf)-sorted run —
// sortedEST and sortedTF hold its keys in run order — into groups under
// p. The run is cut into independent segments at every earliest-start
// gap wider than the tolerance (Cuts); the segments are packed
// concurrently under ex and workers (the Sharded fields of the same
// names) and their groups concatenated in segment order, which
// reproduces one Pack over the whole run bit for bit. When the run has
// a single segment — every adjacent gap is within the tolerance — the
// pack is inherently sequential and runs serially. The whole pack is
// one group_pack span; a cancelled ctx stops it and returns ctx's
// error. The groups are capacity-capped views of sorted, so the caller
// hands the run over: it must not modify sorted afterwards. Both the
// Sharded grouper and the engine's scatter-gather grouping (over the
// merged per-shard runs) end here, and both own the run they pass.
func PackSorted(ctx context.Context, sorted []*flexoffer.FlexOffer, sortedEST, sortedTF []int, p Params, ex pool.Executor, workers int) ([][]*flexoffer.FlexOffer, error) {
	_, sp := obs.Start(ctx, obs.StageGroupPack)
	defer sp.End()
	ends := Cuts(sortedEST, p.ESTTolerance)
	if len(ends) == 1 {
		return pack(sorted, sortedEST, sortedTF, p), nil
	}
	per := make([][][]*flexoffer.FlexOffer, len(ends))
	done := ctx.Done()
	s := &Sharded{Pool: ex, Workers: workers}
	s.forEach(len(ends), 0, func(k int) {
		select {
		case <-done:
			return
		default:
		}
		lo := 0
		if k > 0 {
			lo = ends[k-1]
		}
		hi := ends[k]
		per[k] = pack(sorted[lo:hi], sortedEST[lo:hi], sortedTF[lo:hi], p)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, g := range per {
		total += len(g)
	}
	out := make([][]*flexoffer.FlexOffer, 0, total)
	for _, g := range per {
		out = append(out, g...)
	}
	return out, nil
}

// SortRun derives the grouping sort keys for the offers and returns
// the stable (est, tf)-sorted permutation together with the keys (in
// input order) — the sort the Sharded grouper uses, exposed for the
// scatter-gather sharded engine, which sorts each shard's store
// concurrently on that shard's goroutine and k-way merges the runs
// into the global grouping order. The key derivation fans out under ex
// and workers (the Sharded fields of the same names); the sort itself
// is one serial O(n) radix sort (radixPerm).
func SortRun(offers []*flexoffer.FlexOffer, ex pool.Executor, workers int) (perm, ests, tfs []int) {
	s := &Sharded{Pool: ex, Workers: workers}
	n := len(offers)
	ests = make([]int, n)
	tfs = make([]int, n)
	s.forEach(n, 0, func(i int) {
		ests[i] = offers[i].EarliestStart
		tfs[i] = offers[i].TimeFlexibility()
	})
	return radixPerm(ests, tfs), ests, tfs
}
