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

// TestAggregateSafeSlabMatchesTightenTotals pins the copy-free safe
// aggregation and the one-slab disaggregation to their per-offer
// definitions: the aggregate's bounds slab holds every constituent's
// TightenTotals profile and totals (empty and nil profiles rejected as
// TightenTotals copies are), Constituents are the caller's offers
// themselves in a slice of their own — appending to or overwriting the
// input slice leaves them unchanged — the input offers are unmodified,
// and appending to one assignment's Values leaves its neighbour
// unchanged.
func TestAggregateSafeSlabMatchesTightenTotals(t *testing.T) {
	r := rand.New(rand.NewSource(31))

	edge := slabGroup(r, 3)
	edge = append(edge[:1], &flexoffer.FlexOffer{ID: "nil"}, edge[1],
		&flexoffer.FlexOffer{ID: "empty", Slices: []flexoffer.Slice{}, TotalMin: 1}, edge[2])
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
			if ag.Constituents[i] != f {
				t.Fatalf("n=%d: constituent %d is not the caller's offer", n, i)
			}
			c := ag.cons[i]
			lo, hi := c.span()
			tt := f.TightenTotals()
			got := &flexoffer.FlexOffer{ID: f.ID, Zone: f.Zone, EarliestStart: c.est, LatestStart: c.lst,
				Slices: ag.bounds[lo:hi:hi], TotalMin: c.totalMin, TotalMax: c.totalMax}
			if !reflect.DeepEqual(got, tt) {
				t.Fatalf("n=%d: constituent %d's slab = %+v, want TightenTotals %+v", n, i, got, tt)
			}
		}
		if !reflect.DeepEqual(group, before) {
			t.Fatalf("n=%d: AggregateSafe modified its input", n)
		}
		members := append([]*flexoffer.FlexOffer(nil), ag.Constituents...)
		_ = append(group[:n-1], &flexoffer.FlexOffer{ID: "appended"})
		group[0] = &flexoffer.FlexOffer{ID: "overwritten"}
		if !reflect.DeepEqual(ag.Constituents, members) {
			t.Fatalf("n=%d: Constituents alias the input slice", n)
		}

		a := ag.Offer.MaxAssignment()
		parts, err := ag.Disaggregate(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < n; i++ {
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

// benchGroup is a dispatch-sized group: 64 offers of 8–16 slices with
// earliest starts within two slots of each other, half of them with
// totals tighter than their slice sums.
func benchGroup(r *rand.Rand) []*flexoffer.FlexOffer {
	group := make([]*flexoffer.FlexOffer, 64)
	for i := range group {
		slices := make([]flexoffer.Slice, 8+r.Intn(9))
		for j := range slices {
			lo := int64(r.Intn(4))
			slices[j] = flexoffer.Slice{Min: lo, Max: lo + int64(r.Intn(8))}
		}
		est := r.Intn(3)
		f := flexoffer.MustNew(est, est+4+r.Intn(8), slices...)
		if i%2 == 0 {
			span := f.SumMax() - f.SumMin()
			f.TotalMin += span / 3
			f.TotalMax -= span / 3
		}
		group[i] = f
	}
	return group
}

// BenchmarkAggregateSafeDisaggregate times one safe aggregation and
// three disaggregations (minimum, maximum, mid-window) of a
// dispatch-sized group on the copy-free slab path and on the copying
// oracle it replaced.
func BenchmarkAggregateSafeDisaggregate(b *testing.B) {
	group := benchGroup(rand.New(rand.NewSource(43)))
	ag, err := AggregateSafe(group)
	if err != nil {
		b.Fatal(err)
	}
	probes := probeAssignments(ag.Offer)
	b.Run("slab", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ag, _ := AggregateSafe(group)
			for _, a := range probes {
				if _, err := ag.Disaggregate(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("copies", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ag, _ := oracleAggregateSafe(group)
			for _, a := range probes {
				if _, err := ag.Disaggregate(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
