package grouping

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/flexoffer"
)

// oraclePack is the reference greedy pack: it reads both keys from the
// offers and builds every group by appending. pack must reproduce it
// exactly while reading the keys from flat arrays and returning views.
func oraclePack(sorted []*flexoffer.FlexOffer, p Params) [][]*flexoffer.FlexOffer {
	var groups [][]*flexoffer.FlexOffer
	var cur []*flexoffer.FlexOffer
	var baseEST, minTF, maxTF int
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur = nil
		}
	}
	for _, f := range sorted {
		tf := f.TimeFlexibility()
		if len(cur) == 0 {
			cur = []*flexoffer.FlexOffer{f}
			baseEST = f.EarliestStart
			minTF, maxTF = tf, tf
			continue
		}
		lo, hi := min(minTF, tf), max(maxTF, tf)
		fits := f.EarliestStart-baseEST <= p.ESTTolerance &&
			(p.TFTolerance < 0 || hi-lo <= p.TFTolerance) &&
			(p.MaxGroupSize <= 0 || len(cur) < p.MaxGroupSize)
		if !fits {
			flush()
			cur = []*flexoffer.FlexOffer{f}
			baseEST = f.EarliestStart
			minTF, maxTF = tf, tf
			continue
		}
		cur = append(cur, f)
		minTF, maxTF = lo, hi
	}
	flush()
	return groups
}

// packParams is the tolerance grid the pack tests sweep.
func packParams() []Params {
	var ps []Params
	for _, size := range []int{0, 1, 3, 64} {
		for _, tf := range []int{-1, 0, 2} {
			for _, est := range []int{0, 2, 1000} {
				ps = append(ps, Params{ESTTolerance: est, TFTolerance: tf, MaxGroupSize: size})
			}
		}
	}
	return ps
}

// TestPackMatchesOracle pins the key-array pack against the
// append-built oracle: Pack (with and without the TF keys), PackSorted
// and Group all DeepEqual it for input sizes from 0 to 300 (every size
// below 32, then widening steps, and 300 itself), on a dense and a
// sparse population, across the tolerance grid.
func TestPackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, estRange := range []int{25, 600} {
		offers := randomOffers(t, rng, 300, estRange, 5)
		sizes := []int{len(offers)}
		for n := 0; n < len(offers); n += 1 + n/32*16 {
			sizes = append(sizes, n)
		}
		for _, n := range sizes {
			sorted, sortedEST, sortedTF := sortedRun(offers[:n])
			for _, p := range packParams() {
				want := oraclePack(sorted, p)
				where := fmt.Sprintf("estRange %d n %d params %+v", estRange, n, p)
				if got := Pack(sorted, sortedTF, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Pack diverged from the oracle", where)
				}
				if got := Pack(sorted, nil, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Pack without TF keys diverged from the oracle", where)
				}
				if got := Group(offers[:n], p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Group diverged from the oracle", where)
				}
				got, err := PackSorted(context.Background(), sorted, sortedEST, sortedTF, p, nil, 2)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 && len(got) != 0 || n > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: PackSorted diverged from the oracle", where)
				}
			}
		}
	}
}

// TestPackGroupsAreIsolated pins the aliasing contract of the views:
// appending to group i leaves group i+1 unchanged for every entry
// point, and Pack's groups do not alias the caller's run.
func TestPackGroupsAreIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	offers := randomOffers(t, rng, 200, 30, 4)
	sorted, sortedEST, sortedTF := sortedRun(offers)
	p := Params{ESTTolerance: 1, TFTolerance: -1, MaxGroupSize: 4}
	extra := mkOffer(t, 0, 1)
	packed, err := PackSorted(context.Background(), append([]*flexoffer.FlexOffer(nil), sorted...), sortedEST, sortedTF, p, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, groups := range map[string][][]*flexoffer.FlexOffer{
		"Pack":       Pack(sorted, sortedTF, p),
		"PackSorted": packed,
		"Group":      Group(offers, p),
	} {
		if len(groups) < 2 {
			t.Fatalf("%s: %d groups, want several", name, len(groups))
		}
		for i := 0; i+1 < len(groups); i++ {
			next := append([]*flexoffer.FlexOffer(nil), groups[i+1]...)
			_ = append(groups[i], extra)
			if !reflect.DeepEqual(groups[i+1], next) {
				t.Fatalf("%s: appending to group %d changed group %d", name, i, i+1)
			}
		}
	}

	run := append([]*flexoffer.FlexOffer(nil), sorted...)
	groups := Pack(run, sortedTF, p)
	for i := range run {
		run[i] = extra
	}
	if !reflect.DeepEqual(groups, oraclePack(sorted, p)) {
		t.Fatal("Pack's groups alias the caller's run")
	}
}

// TestPackSortedAllocsIndependentOfGroupSize pins that the pack
// allocates only its group list, neither per group nor per member: at
// a fixed group count, PackSorted's allocations are the same for
// groups of 1, 16 and 64, and fewer than the groups.
func TestPackSortedAllocsIndependentOfGroupSize(t *testing.T) {
	const count = 40
	allocs := func(size int) float64 {
		var offers []*flexoffer.FlexOffer
		for i := 0; i < count*size; i++ {
			offers = append(offers, mkOffer(t, 0, i%3))
		}
		sorted, sortedEST, sortedTF := sortedRun(offers)
		p := Params{ESTTolerance: 0, TFTolerance: -1, MaxGroupSize: size}
		return testing.AllocsPerRun(20, func() {
			if _, err := PackSorted(context.Background(), sorted, sortedEST, sortedTF, p, nil, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(1)
	if base >= count {
		t.Errorf("%.0f allocs per pack of %d groups", base, count)
	}
	for _, size := range []int{16, 64} {
		if got := allocs(size); got != base {
			t.Errorf("groups of %d: %.0f allocs per pack, groups of 1: %.0f", size, got, base)
		}
	}
}
