package inc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/flexoffer"
)

// layoutOffer is a random valid offer of 1–5 slices whose totals are
// tighter than its slice sums about half the time, so safe aggregation
// narrows its bounds.
func layoutOffer(r *rand.Rand, id int) *flexoffer.FlexOffer {
	slices := make([]flexoffer.Slice, 1+r.Intn(5))
	for i := range slices {
		lo := int64(r.Intn(9) - 3)
		slices[i] = flexoffer.Slice{Min: lo, Max: lo + int64(r.Intn(4))}
	}
	est := r.Intn(40)
	f := flexoffer.MustNew(est, est+r.Intn(6), slices...)
	if r.Intn(2) == 0 && f.SumMax() > f.SumMin() {
		f.TotalMin = f.SumMin() + r.Int63n(f.SumMax()-f.SumMin()+1)
		f.TotalMax = f.TotalMin + r.Int63n(f.SumMax()-f.TotalMin+1)
	}
	f.ID = fmt.Sprintf("o%d", id)
	return f
}

// churnRun is one step of the merged run: offers removed, replaced by a
// copy of identical content under a new pointer, or joined by a new
// offer in front, at random.
func churnRun(r *rand.Rand, run []*flexoffer.FlexOffer, next *int) []*flexoffer.FlexOffer {
	var out []*flexoffer.FlexOffer
	for _, f := range run {
		switch r.Intn(12) {
		case 0: // removed
		case 1:
			out = append(out, f.Clone())
		case 2:
			*next++
			out = append(out, layoutOffer(r, *next), f)
		default:
			out = append(out, f)
		}
	}
	return out
}

// regroup cuts the run into groups of at most 12: at a previous group's
// first member most of the time, and at random elsewhere, so a group
// keeps its members, gains or loses some at its edges, or takes its
// members from two or three previous groups.
func regroup(r *rand.Rand, run []*flexoffer.FlexOffer, prev [][]*flexoffer.FlexOffer) [][]*flexoffer.FlexOffer {
	firsts := make(map[*flexoffer.FlexOffer]bool, len(prev))
	for _, g := range prev {
		firsts[g[0]] = true
	}
	var groups [][]*flexoffer.FlexOffer
	lo := 0
	for i := 1; i <= len(run); i++ {
		if i == len(run) || i-lo == 12 || (firsts[run[i]] && r.Intn(4) != 0) || r.Intn(10) == 0 {
			groups = append(groups, run[lo:i:i])
			lo = i
		}
	}
	return groups
}

// stripEvery reduces every k-th aggregate to its Offer and
// Constituents (no layout slab), as a caller-assembled aggregate is.
func stripEvery(ags []*aggregate.Aggregated, k int) {
	for i := 0; i < len(ags); i += k {
		ags[i] = &aggregate.Aggregated{Offer: ags[i].Offer, Constituents: ags[i].Constituents}
	}
}

// probes returns the minimum, maximum and midpoint assignments of f;
// minimum and maximum ignore the totals, so they also probe
// disaggregation's error path.
func probes(f *flexoffer.FlexOffer) []flexoffer.Assignment {
	mid := flexoffer.Assignment{Start: (f.EarliestStart + f.LatestStart) / 2, Values: make([]int64, len(f.Slices))}
	for i, s := range f.Slices {
		mid.Values[i] = s.Min + (s.Max-s.Min)/2
	}
	return []flexoffer.Assignment{f.MinAssignment(), f.MaxAssignment(), mid}
}

// sameDisaggregation requires a and b to disaggregate every probe of
// their (equal) offer identically, or to fail it with the same error.
func sameDisaggregation(t *testing.T, a, b *aggregate.Aggregated) {
	t.Helper()
	for _, p := range probes(a.Offer) {
		got, gerr := a.Disaggregate(p)
		want, werr := b.Disaggregate(p)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("disaggregating %+v: %v (err %v), from scratch %v (err %v)", p, got, gerr, want, werr)
		}
	}
}

// layoutRun is one RunSourced over groups with the real aggregation
// stage, every strip-th aggregate it builds stripped of its layout
// slab when strip > 0.
func layoutRun(t *testing.T, s *State, groups [][]*flexoffer.FlexOffer, safe bool, strip int) *Result {
	t.Helper()
	res, err := s.RunSourced(context.Background(), groups, stubTarget, Config{Safe: safe, Threshold: 1},
		func(ctx context.Context, gs [][]*flexoffer.FlexOffer, src aggregate.Sources) ([]*aggregate.Aggregated, int, error) {
			ags, reused, err := aggregate.AggregateGroupsFromParallel(ctx, gs, src, safe, aggregate.ParallelParams{Workers: 2})
			if err == nil && strip > 0 {
				stripEvery(ags, strip)
			}
			return ags, reused, err
		}, stubDisaggregate)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunSourcedMatchesScratch is the differential test of the layout
// reuse: over random churn — members removed, replaced by identical
// copies under new pointers, added, and groups re-cut so they take
// members from one to three previous groups — every aggregate a run
// builds equals the one built from scratch in its offer, constituents,
// layout and bounds, and disaggregates the minimum, maximum and
// midpoint assignments identically, under plain and safe aggregation,
// across safe-mode toggles and previous aggregates without a layout
// slab. Most miss members must have been copied, or the test would
// show nothing.
func TestRunSourcedMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	next := 0
	var run []*flexoffer.FlexOffer
	for ; next < 300; next++ {
		run = append(run, layoutOffer(r, next))
	}
	s := NewState()
	var groups [][]*flexoffer.FlexOffer
	prevAggs := map[*aggregate.Aggregated]bool{}
	safe := true
	for step := 0; step < 24; step++ {
		if step > 0 {
			run = churnRun(r, run, &next)
		}
		groups = regroup(r, run, groups)
		if step%6 == 5 {
			safe = !safe
		}
		strip := 0
		if step%4 == 2 {
			strip = 3
		}
		before := s.Stats()
		res := layoutRun(t, s, groups, safe, strip)
		var want []*aggregate.Aggregated
		var err error
		if safe {
			want, err = aggregate.AggregateGroupsSafeParallel(context.Background(), groups, aggregate.ParallelParams{Workers: 1})
		} else {
			want, err = aggregate.AggregateGroupsParallel(context.Background(), groups, aggregate.ParallelParams{Workers: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, members := 0, 0
		for i, ag := range res.Aggregates {
			if prevAggs[ag] {
				continue // a cache hit: the aggregate an earlier run built
			}
			rebuilt++
			members += len(groups[i])
			if strip > 0 {
				// Some of this run's aggregates lost their slabs: only
				// the next run, which must not copy from them, tells.
				if !reflect.DeepEqual(ag.Offer, want[i].Offer) || !reflect.DeepEqual(ag.Constituents, want[i].Constituents) {
					t.Fatalf("step %d (safe=%v): group %d's aggregate offer differs from scratch", step, safe, i)
				}
				continue
			}
			if !reflect.DeepEqual(ag, want[i]) {
				t.Fatalf("step %d (safe=%v): group %d's aggregate differs from scratch", step, safe, i)
			}
			sameDisaggregation(t, ag, want[i])
		}
		st := s.Stats()
		reused, built := st.LayoutsReused-before.LayoutsReused, st.LayoutsBuilt-before.LayoutsBuilt
		if reused+built != int64(members) {
			t.Fatalf("step %d: %d layouts copied + %d built, want the %d members of %d rebuilt groups", step, reused, built, members, rebuilt)
		}
		// After the first run and each mode toggle (which clears the
		// cache), most rebuilt members come from the previous aggregates.
		if step > 0 && step%6 != 5 && reused < built {
			t.Errorf("step %d: only %d of %d miss members copied", step, reused, reused+built)
		}
		prevAggs = map[*aggregate.Aggregated]bool{}
		for _, ag := range res.Aggregates {
			prevAggs[ag] = true
		}
	}
}

// TestRunLayoutStatsPartitionMisses: LayoutsReused and LayoutsBuilt
// split the members of the groups a run aggregated again, and Run —
// whose aggregation reads every offer — counts them all as built.
func TestRunLayoutStatsPartitionMisses(t *testing.T) {
	groups := stubGroups(t, 6, 4)
	s := NewState()
	layoutRun(t, s, groups, true, 0)
	if st := s.Stats(); st.LayoutsReused != 0 || st.LayoutsBuilt != 24 {
		t.Fatalf("cold run: %d copied, %d built, want 0 and 24", st.LayoutsReused, st.LayoutsBuilt)
	}
	// Merge groups 1 and 2 and replace one member of group 4: three
	// miss groups, 4+4+4 members, the replaced one built.
	next := [][]*flexoffer.FlexOffer{groups[0], append(append([]*flexoffer.FlexOffer{}, groups[1]...), groups[2]...), groups[3],
		{groups[4][0], groups[4][1].Clone(), groups[4][2], groups[4][3]}, groups[5]}
	layoutRun(t, s, next, true, 0)
	if st := s.Stats(); st.LayoutsReused != 11 || st.LayoutsBuilt != 24+1 {
		t.Fatalf("delta run: %d copied, %d built, want 11 and 25", st.LayoutsReused, st.LayoutsBuilt)
	}
	plain := NewState()
	runStub(t, plain, groups)
	if st := runStub(t, plain, next); st.LayoutsReused != 0 || st.LayoutsBuilt != 24+12 {
		t.Fatalf("Run: %d copied, %d built, want 0 and 36", st.LayoutsReused, st.LayoutsBuilt)
	}
}
