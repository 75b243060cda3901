package aggregate

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/flexoffer"
)

// slabGroup is a random group of n valid offers with distinct IDs and
// zones, about half of them with totals tighter than their slice sums.
func slabGroup(r *rand.Rand, n int) []*flexoffer.FlexOffer {
	group := make([]*flexoffer.FlexOffer, n)
	for i := range group {
		f := randomOfferForAgg(r)
		f.ID = string(rune('a'+i%26)) + string(rune('0'+i/26))
		f.Zone = "z"
		group[i] = f
	}
	return group
}

// TestAggregateSafeSlabMatchesTightenTotals pins the one-copy safe
// aggregation and the one-slab disaggregation to their per-offer
// definitions: the shared copies equal Clone and TightenTotals offer by
// offer (empty and nil profiles included), AggregateSafe's constituents
// equal the per-offer TightenTotals, the input offers are unmodified,
// and appending to one constituent's Slices or one assignment's Values
// leaves its neighbour unchanged.
func TestAggregateSafeSlabMatchesTightenTotals(t *testing.T) {
	r := rand.New(rand.NewSource(31))

	// Profiles that are nil or empty copy to nil, as Clone does.
	edge := slabGroup(r, 3)
	edge = append(edge[:1], &flexoffer.FlexOffer{ID: "nil"}, edge[1],
		&flexoffer.FlexOffer{ID: "empty", Slices: []flexoffer.Slice{}, TotalMin: 1}, edge[2])
	clones, tightened := flexoffer.CloneAll(edge), flexoffer.TightenTotalsAll(edge)
	for i, f := range edge {
		if !reflect.DeepEqual(clones[i], f.Clone()) {
			t.Errorf("CloneAll[%d] = %+v, want Clone %+v", i, clones[i], f.Clone())
		}
		if !reflect.DeepEqual(tightened[i], f.TightenTotals()) {
			t.Errorf("TightenTotalsAll[%d] = %+v, want TightenTotals %+v", i, tightened[i], f.TightenTotals())
		}
	}
	if _, err := AggregateSafe(edge); !errors.Is(err, flexoffer.ErrNoSlices) {
		t.Errorf("AggregateSafe over an empty profile: err %v, want ErrNoSlices", err)
	}

	for _, n := range []int{1, 2, 7, 40} {
		group := slabGroup(r, n)
		before := make([]*flexoffer.FlexOffer, n)
		for i, f := range group {
			before[i] = f.Clone()
		}
		ag, err := AggregateSafe(group)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range group {
			if !reflect.DeepEqual(ag.Constituents[i], f.TightenTotals()) {
				t.Fatalf("n=%d: constituent %d = %+v, want TightenTotals %+v", n, i, ag.Constituents[i], f.TightenTotals())
			}
			if ag.Constituents[i] == f {
				t.Fatalf("n=%d: constituent %d aliases its input", n, i)
			}
		}
		if !reflect.DeepEqual(group, before) {
			t.Fatalf("n=%d: AggregateSafe modified its input", n)
		}

		a := ag.Offer.MaxAssignment()
		parts, err := ag.Disaggregate(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < n; i++ {
			next := ag.Constituents[i+1].Clone()
			ag.Constituents[i].Slices = append(ag.Constituents[i].Slices, flexoffer.Slice{Min: -99, Max: 99})
			if !reflect.DeepEqual(ag.Constituents[i+1], next) {
				t.Fatalf("n=%d: appending to constituent %d's Slices changed constituent %d", n, i, i+1)
			}
			nextValues := append([]int64(nil), parts[i+1].Values...)
			parts[i].Values = append(parts[i].Values, -99)
			if !reflect.DeepEqual(parts[i+1].Values, nextValues) {
				t.Fatalf("n=%d: appending to assignment %d's Values changed assignment %d", n, i, i+1)
			}
		}
	}
}

// TestAggregateSafeAllocsFlat pins the allocation budget: AggregateSafe
// and Disaggregate allocate the same number of objects for a group of
// 1, 16 and 64 offers — per-group slabs, nothing per constituent.
func TestAggregateSafeAllocsFlat(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var aggAllocs, disAllocs []float64
	sizes := []int{1, 16, 64}
	for _, n := range sizes {
		group := slabGroup(r, n)
		ag, err := AggregateSafe(group)
		if err != nil {
			t.Fatal(err)
		}
		a := ag.Offer.MinAssignment()
		aggAllocs = append(aggAllocs, testing.AllocsPerRun(20, func() {
			if _, err := AggregateSafe(group); err != nil {
				t.Fatal(err)
			}
		}))
		disAllocs = append(disAllocs, testing.AllocsPerRun(20, func() {
			if _, err := ag.Disaggregate(a); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for i := range sizes[1:] {
		if aggAllocs[i+1] != aggAllocs[0] || disAllocs[i+1] != disAllocs[0] {
			t.Fatalf("allocs/op over group sizes %v: AggregateSafe %v, Disaggregate %v; want each flat",
				sizes, aggAllocs, disAllocs)
		}
	}
}
