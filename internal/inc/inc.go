// Package inc implements incremental continuous scheduling: a
// content-addressed aggregate cache plus delta re-placement, so a
// /v1/schedule call after a small fleet delta costs O(changed groups)
// instead of re-running group → aggregate → schedule → disaggregate
// over the whole population.
//
// # Content addressing
//
// The shard stores are copy-on-write: a stored *flexoffer.FlexOffer is
// never mutated in place — replacing an offer installs a new pointer
// (see shard.Stores). Pointer identity therefore implies content
// identity, and a group is addressed by its members' pointers: the
// cache finds a group's previous entry by its first member pointer and
// verifies the hit by comparing every member pointer in order. A group
// whose members are all unchanged finds its previous entry and reuses
// the cached aggregate outright; any membership change — an offer
// added, replaced (new pointer, even under the same ID and sequence
// number) or deleted — fails the comparison and the group aggregates
// fresh. No hashing and no per-offer bookkeeping is involved: the
// lookup map holds one entry per cached group. No explicit
// invalidation is needed for correctness: stale entries simply stop
// being addressed. Pointer identity stays sound across runs because
// the cached member slices keep every cached offer alive, so its
// address cannot be handed to a new offer. EST-gap cuts bound the
// blast radius of one offer change to the groups of its own gap
// segment — groups in other segments keep their exact member pointers
// (the grouping stability test pins this), so they keep hitting.
//
// A group that misses is aggregated again, but rarely from its offers:
// when a change shifts the packing, its members mostly sat in one to
// three previous groups. Each member's layout — its constituent record
// and its bounds span, tightened under safe aggregation — is a pure
// function of the offer and the safe flag, so it is copied from the
// previous run's aggregate that holds that very pointer (see
// aggregate.Prior). The same argument as above makes a pointer match
// exact: the pointer names immutable content, and the previous
// aggregates keep their offers alive. The safe flag is part of the
// fingerprint, so a previous aggregate built the other way is never
// asked; one without a layout slab is skipped. The sources are found
// by one serial cursor over the previous aggregates in run order: a
// hit puts it past its entry, a miss past its members — one pointer
// comparison when the group's last member sits where it did — and
// each miss records only where its search starts. Rebuilt aggregates
// copy, never alias, so they pin no previous slab, and they equal
// aggregates built from the offers field for field. Only members new
// or replaced since the previous run are read from their offers.
//
// # Delta re-placement
//
// Greedy placement is order- and residual-dependent, so reusing a
// clean group's cached assignment is only sound when the residual it
// would scan is identical to the one the previous run scanned. The
// merge walk tracks exactly that with sched.Incremental's difference
// accumulator: clean groups whose scan window shows a zero difference
// replay their cached assignment with one O(profile) integer add;
// everything else — dirty groups, and clean groups whose window was
// perturbed by an earlier change — is re-placed against the true
// residual. The output is bit-identical to a full recompute for every
// churn sequence; when the dirty fraction exceeds Config.Threshold the
// walk skips the difference bookkeeping and re-places everything (still
// reusing cached aggregates, which are placement-independent).
//
// A State is the per-engine cached run; each flex.Engine owns one
// behind WithIncremental and serializes runs on it.
package inc

import (
	"context"
	"errors"
	"sync"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/timeseries"
)

// DefaultThreshold is the dirty-group fraction above which a run stops
// maintaining the placement difference and re-places every group. Past
// this point most windows are perturbed anyway, so the bookkeeping
// costs more than the reuse saves; cached aggregates are still reused.
const DefaultThreshold = 0.5

// Config is the part of an engine's option set that incremental state
// depends on.
type Config struct {
	// PeakCap is the soft peak cap (0: uncapped). Changing it (or the
	// target) invalidates cached placements but not cached aggregates.
	PeakCap int64
	// Safe selects safe aggregation. Changing it invalidates the whole
	// cache: the same member set aggregates differently.
	Safe bool
	// Threshold is the dirty-fraction fallback bound; 0 means
	// DefaultThreshold, 1 disables the fallback.
	Threshold float64
}

// AggregateFunc aggregates the given groups in order — the engine's
// parallel fan-out plugs in here. Errors must be reported with group
// indices relative to the given slice (the walk remaps them to global
// group indices).
type AggregateFunc func(ctx context.Context, groups [][]*flexoffer.FlexOffer) ([]*aggregate.Aggregated, error)

// SourcedAggregateFunc is an AggregateFunc that may copy member
// layouts from src (see aggregate.Prior), as
// aggregate.AggregateGroupsFromParallel does, and reports how many it
// copied. Its aggregates must equal the AggregateFunc's.
type SourcedAggregateFunc func(ctx context.Context, groups [][]*flexoffer.FlexOffer, src aggregate.Sources) ([]*aggregate.Aggregated, int, error)

// DisaggregateFunc disaggregates assignments[i] of ags[i] — the
// engine's parallel fan-out plugs in here, with the same index-remap
// contract as AggregateFunc.
type DisaggregateFunc func(ctx context.Context, ags []*aggregate.Aggregated, assignments []flexoffer.Assignment) ([][]flexoffer.Assignment, error)

// Result is one incremental pipeline run over materialized groups, in
// group order — the engine wraps it into a PipelineResult.
type Result struct {
	Aggregates    []*aggregate.Aggregated
	Assignments   []flexoffer.Assignment
	Disaggregated [][]flexoffer.Assignment
	Load          timeseries.Series
}

// Stats reports the cache's cumulative effectiveness plus the shape of
// the most recent run — the numbers behind flexd's
// flexd_sched_cache_hits_total and flexd_sched_dirty_groups metrics.
type Stats struct {
	// Runs counts completed incremental runs; FullRuns counts the ones
	// that re-placed every group (first run, config change, or the
	// dirty-fraction fallback).
	Runs, FullRuns int64
	// Hits and Misses count aggregate-cache lookups across all runs.
	Hits, Misses int64
	// Reused counts placements replayed from cache; Replaced counts
	// clean groups re-placed because their window was perturbed; Placed
	// counts the groups placed fresh — dirty groups, and every group of
	// a full run. Each group of each successful run counts exactly once.
	Reused, Replaced, Placed int64
	// LayoutsReused and LayoutsBuilt split the members of the groups
	// aggregated again: layouts copied from the previous run's
	// aggregates, and layouts read from the offers.
	LayoutsReused, LayoutsBuilt int64
	// LastGroups, LastDirty and LastReused describe the most recent run:
	// total groups, groups whose aggregate was recomputed, and
	// placements replayed from cache.
	LastGroups, LastDirty, LastReused int
}

// entry is one cached group: the members addressing it, the aggregate
// (a pure function of the members), the placement the previous run
// committed, its disaggregation, and the scan window the reuse check
// covers.
type entry struct {
	members []*flexoffer.FlexOffer
	agg     *aggregate.Aggregated
	asg     flexoffer.Assignment
	parts   []flexoffer.Assignment
	lo, hi  int
}

// State is the cached side of incremental scheduling for one engine:
// the previous run's entries in group order, the first-member map
// addressing them, their aggregates as the layout sources of the next
// run, and the config fingerprint guarding reuse. Run replaces the
// whole state atomically on success and leaves it untouched on error,
// so a failed or cancelled run never poisons the cache.
type State struct {
	mu      sync.Mutex
	prev    []entry
	byFirst map[*flexoffer.FlexOffer]int
	prior   aggregate.Prior

	// Fingerprint of the run that produced prev: target and cap guard
	// placement reuse, safe guards aggregate reuse.
	target  timeseries.Series
	peakCap int64
	safe    bool
	valid   bool

	stats Stats
}

// NewState returns an empty incremental state.
func NewState() *State {
	return &State{}
}

// Invalidate drops every cached entry — the store-reset hook.
func (s *State) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prev, s.byFirst, s.prior, s.valid = nil, nil, nil, false
}

// Stats returns a snapshot of the cache statistics.
func (s *State) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// sameMembers reports whether two member slices hold the same pointers
// in the same order — the verification behind a first-member hit.
func sameMembers(a, b []*flexoffer.FlexOffer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Run is RunSourced with an aggregation stage that reads every member
// from its offer.
func (s *State) Run(ctx context.Context, groups [][]*flexoffer.FlexOffer, target timeseries.Series, cfg Config, aggFn AggregateFunc, disFn DisaggregateFunc) (*Result, error) {
	return s.RunSourced(ctx, groups, target, cfg,
		func(ctx context.Context, gs [][]*flexoffer.FlexOffer, _ aggregate.Sources) ([]*aggregate.Aggregated, int, error) {
			ags, err := aggFn(ctx, gs)
			return ags, 0, err
		}, disFn)
}

// RunSourced executes one incremental pipeline pass over the
// materialized groups: aggregate-cache lookups, parallel aggregation
// of the misses through aggFn (handed the previous run's aggregates as
// layout sources), the serial merge-walk placement, and parallel
// disaggregation of the changed groups through disFn. On success the
// state is replaced wholesale; on error it is left exactly as the last
// successful run built it.
func (s *State) RunSourced(ctx context.Context, groups [][]*flexoffer.FlexOffer, target timeseries.Series, cfg Config, aggFn SourcedAggregateFunc, disFn DisaggregateFunc) (*Result, error) {
	if len(groups) == 0 {
		return nil, sched.ErrNoOffers
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Safe-mode change: the cached aggregates were built the other way,
	// so nothing is addressable.
	if s.valid && s.safe != cfg.Safe {
		s.prev, s.byFirst, s.prior = nil, nil, nil
	}
	// Target or cap change: aggregates stay valid (they never see the
	// target), placements don't.
	replayValid := s.valid && s.safe == cfg.Safe &&
		s.peakCap == cfg.PeakCap && s.target.Equal(target)

	n := len(groups)
	next := make([]entry, n)

	// Phase 1: match every group against the previous run by its first
	// member, verified by all members. Matches must advance
	// monotonically through prev — clean groups keep their relative
	// order across runs (the grouping sort is stable over unchanged
	// keys), so an out-of-order hit is a reordering we defensively
	// treat as a miss. An empty group always misses.
	match := make([]int, n) // prev index, or -1
	dirty := 0
	cursor := 0
	for i, g := range groups {
		next[i].members = g
		match[i] = -1
		if len(g) > 0 {
			if p, ok := s.byFirst[g[0]]; ok && p >= cursor && sameMembers(s.prev[p].members, g) {
				match[i] = p
				cursor = p + 1
				s.stats.Hits++
				continue
			}
		}
		dirty++
		s.stats.Misses++
	}

	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	// Past the threshold the difference bookkeeping cannot pay for
	// itself: place everything fresh (cached aggregates still reused).
	fallback := float64(dirty)/float64(n) > threshold
	replay := replayValid && !fallback
	fullRun := !replay

	// Phase 2: aggregate the misses in parallel, in global group order.
	// The groups cover the merged run in order, as the previous run's
	// did, so one cursor walks the previous aggregates alongside: a hit
	// puts it past its entry, a miss past its members (see
	// aggregate.Prior.Skip). Each miss records only where its search
	// starts; the aggregation resolves its members from there.
	missIdx := make([]int, 0, dirty)
	missGroups := make([][]*flexoffer.FlexOffer, 0, dirty)
	src := aggregate.Sources{Prior: s.prior, Starts: make([]aggregate.Cursor, 0, dirty)}
	var at aggregate.Cursor
	members := 0
	for i, g := range groups {
		if p := match[i]; p >= 0 {
			at = s.prior.First(p + 1)
			continue
		}
		missIdx = append(missIdx, i)
		missGroups = append(missGroups, g)
		src.Starts = append(src.Starts, at)
		at = s.prior.Skip(at, g)
		members += len(g)
	}
	if len(missGroups) > 0 {
		ags, reused, err := aggFn(ctx, missGroups, src)
		if err != nil {
			return nil, remapGroupErr(err, missIdx)
		}
		for j, ag := range ags {
			next[missIdx[j]].agg = ag
		}
		s.stats.LayoutsReused += int64(reused)
		s.stats.LayoutsBuilt += int64(members - reused)
	}
	for i := range groups {
		if p := match[i]; p >= 0 {
			next[i].agg = s.prev[p].agg
		}
		next[i].lo = next[i].agg.Offer.EarliestStart
		next[i].hi = next[i].agg.Offer.LatestEnd()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: the serial merge walk. rep scans dirty groups against the
	// true residual and replays clean ones whose windows the difference
	// accumulator proves undisturbed; prev entries passed over by the
	// walk (their groups vanished or changed) are retired from the
	// difference so later windows see the perturbation.
	_, sp := obs.Start(ctx, obs.StageSchedule)
	rep := sched.NewIncremental(target, cfg.PeakCap)
	res := &Result{
		Aggregates:  make([]*aggregate.Aggregated, n),
		Assignments: make([]flexoffer.Assignment, n),
	}
	var reused, replaced int
	j := 0 // retire cursor into prev
	for i := range groups {
		e := &next[i]
		res.Aggregates[i] = e.agg
		p := match[i]
		if !replay || p < 0 {
			a, err := rep.Place(e.agg.Offer, i)
			if err != nil {
				sp.End()
				return nil, err
			}
			e.asg = a
			res.Assignments[i] = a
			continue
		}
		// Retire every prev entry the walk passes over before the
		// matched one: their load is in the previous run's prefix but
		// not in ours.
		for ; j < p; j++ {
			rep.Retire(s.prev[j].asg.Start, s.prev[j].asg.Values)
		}
		pe := &s.prev[p]
		j = p + 1
		if rep.CanReuse(e.lo, e.hi) {
			// Zero difference over the scan window: a fresh scan would
			// reproduce the cached assignment exactly, so commit it
			// without scanning and keep its disaggregation too.
			rep.Commit(pe.asg.Start, pe.asg.Values)
			e.asg = pe.asg
			e.parts = pe.parts
			res.Assignments[i] = pe.asg
			reused++
			continue
		}
		// Clean group, perturbed window: lift the old assignment out of
		// the difference and re-place against the true residual.
		rep.Retire(pe.asg.Start, pe.asg.Values)
		a, err := rep.Place(e.agg.Offer, i)
		if err != nil {
			sp.End()
			return nil, err
		}
		e.asg = a
		res.Assignments[i] = a
		if assignmentsEqual(a, pe.asg) {
			// Same placement after all — the disaggregation is a pure
			// function of (aggregate, assignment), so it carries over.
			e.parts = pe.parts
		}
		replaced++
	}
	res.Load = rep.Load()
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 4: disaggregate the groups whose (aggregate, assignment)
	// changed, in parallel.
	disIdx := make([]int, 0, n)
	disAgs := make([]*aggregate.Aggregated, 0, n)
	disAsgs := make([]flexoffer.Assignment, 0, n)
	for i := range next {
		if e := &next[i]; e.parts == nil {
			disIdx = append(disIdx, i)
			disAgs = append(disAgs, e.agg)
			disAsgs = append(disAsgs, e.asg)
		}
	}
	if len(disIdx) > 0 {
		parts, err := disFn(ctx, disAgs, disAsgs)
		if err != nil {
			return nil, remapGroupErr(err, disIdx)
		}
		for j, p := range parts {
			next[disIdx[j]].parts = p
		}
	}
	res.Disaggregated = make([][]flexoffer.Assignment, n)
	for i := range next {
		res.Disaggregated[i] = next[i].parts
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Success: swap the state. Entries index by first member (first
	// wins when groups share one; the loser just misses next time).
	byFirst := make(map[*flexoffer.FlexOffer]int, n)
	prior := make(aggregate.Prior, n)
	for i := range next {
		if g := next[i].members; len(g) > 0 {
			if _, ok := byFirst[g[0]]; !ok {
				byFirst[g[0]] = i
			}
		}
		prior[i] = next[i].agg
	}
	s.prev, s.byFirst, s.prior = next, byFirst, prior
	s.target, s.peakCap, s.safe, s.valid = target, cfg.PeakCap, cfg.Safe, true

	s.stats.Runs++
	if fullRun {
		s.stats.FullRuns++
	}
	s.stats.Reused += int64(reused)
	s.stats.Replaced += int64(replaced)
	s.stats.Placed += int64(n - reused - replaced)
	s.stats.LastGroups = n
	s.stats.LastDirty = dirty
	s.stats.LastReused = reused
	return res, nil
}

// assignmentsEqual reports whether two assignments are identical.
func assignmentsEqual(a, b flexoffer.Assignment) bool {
	if a.Start != b.Start || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// remapGroupErr rewrites the group indices inside an aggregation or
// disaggregation error from positions in the compacted miss slice to
// global group indices, leaving non-group errors (cancellation)
// untouched.
func remapGroupErr(err error, idx []int) error {
	remap := func(i int) int {
		if i >= 0 && i < len(idx) {
			return idx[i]
		}
		return i
	}
	var ges aggregate.GroupErrors
	if errors.As(err, &ges) {
		out := make(aggregate.GroupErrors, len(ges))
		for i, e := range ges {
			c := *e
			c.Group = remap(c.Group)
			out[i] = &c
		}
		return out
	}
	var ge *aggregate.GroupError
	if errors.As(err, &ge) {
		c := *ge
		c.Group = remap(c.Group)
		return &c
	}
	return err
}
