package aggregate

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/flexoffer"
)

// fromPrior aggregates groups with member layouts copied from prior,
// each group searched from where the one before it ended, as the
// incremental walk starts a run of misses.
func fromPrior(t *testing.T, groups [][]*flexoffer.FlexOffer, prior Prior, safe bool) ([]*Aggregated, int, error) {
	t.Helper()
	src := Sources{Prior: prior, Starts: make([]Cursor, len(groups))}
	var at Cursor
	for i, g := range groups {
		src.Starts[i] = at
		at = prior.Skip(at, g)
	}
	return AggregateGroupsFromParallel(context.Background(), groups, src, safe, ParallelParams{Workers: 2})
}

// scratch aggregates groups without sources.
func scratch(groups [][]*flexoffer.FlexOffer, safe bool) ([]*Aggregated, error) {
	if safe {
		return AggregateGroupsSafeParallel(context.Background(), groups, ParallelParams{Workers: 1})
	}
	return AggregateGroupsParallel(context.Background(), groups, ParallelParams{Workers: 1})
}

// TestPriorSoundness pins when a layout is copied: only from a prior
// aggregate holding the identical offer pointer, built in the same mode
// and holding a layout slab. Every other member is read from its offer,
// and the aggregates (or the error, with its constituent index) equal
// the ones built without a prior.
func TestPriorSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	a, b := slabGroup(r, 6), slabGroup(r, 6)
	twin := a[2].Clone() // identical content, new pointer
	bad := &flexoffer.FlexOffer{ID: "bad", EarliestStart: 2, LatestStart: 1, Slices: []flexoffer.Slice{{Min: 0, Max: 1}}}
	strip := func(p Prior) Prior {
		out := make(Prior, len(p))
		for i, ag := range p {
			out[i] = &Aggregated{Offer: ag.Offer, Constituents: ag.Constituents}
		}
		return out
	}
	join := func(parts ...[]*flexoffer.FlexOffer) []*flexoffer.FlexOffer {
		var g []*flexoffer.FlexOffer
		for _, p := range parts {
			g = append(g, p...)
		}
		return g
	}
	for _, tc := range []struct {
		name       string
		priorSafe  bool
		safe       bool
		stripped   bool
		group      []*flexoffer.FlexOffer
		wantReused int
	}{
		{"unchanged", true, true, false, a, 6},
		{"two prior groups", false, false, false, join(a[3:], b[:4]), 7},
		{"removed members skipped", true, true, false, join(a[:1], a[4:], b), 9},
		{"added at the edges", true, true, false, join(slabGroup(r, 2), a, slabGroup(r, 1)), 6},
		{"same content new pointer", true, true, false, join(a[:2], []*flexoffer.FlexOffer{twin}, a[3:]), 5},
		{"other mode", false, true, false, a, 0},
		{"other mode reversed", true, false, false, a, 0},
		{"no layout slab", true, true, true, a, 0},
		{"invalid member plain", false, false, false, join(a[:3], []*flexoffer.FlexOffer{bad}, a[3:]), -1},
		{"invalid member safe", true, true, false, join(a[:3], []*flexoffer.FlexOffer{bad}, a[3:]), -1},
		{"nil member plain", false, false, false, join(a[:3], []*flexoffer.FlexOffer{nil}, a[3:]), -1},
		{"nil member safe", true, true, false, join(a[:3], []*flexoffer.FlexOffer{nil}, a[3:]), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev, err := scratch([][]*flexoffer.FlexOffer{a, b}, tc.priorSafe)
			if err != nil {
				t.Fatal(err)
			}
			prior := Prior(prev)
			if tc.stripped {
				prior = strip(prior)
			}
			groups := [][]*flexoffer.FlexOffer{tc.group}
			want, wantErr := scratch(groups, tc.safe)
			got, reused, err := fromPrior(t, groups, prior, tc.safe)
			if tc.wantReused < 0 {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("err %v, want %v", err, wantErr)
				}
				return
			}
			if err != nil || wantErr != nil {
				t.Fatalf("err %v, scratch err %v", err, wantErr)
			}
			if reused != tc.wantReused {
				t.Errorf("copied %d layouts, want %d", reused, tc.wantReused)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("aggregate built from the prior differs from the one built from scratch")
			}
		})
	}
}

// TestPriorLayoutsShareNoStorage: an aggregate built from a prior owns
// its constituent records, bounds and Constituents — overwriting them
// leaves every source aggregate as it was — so a cached aggregate pins
// only its own slab.
func TestPriorLayoutsShareNoStorage(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, safe := range []bool{false, true} {
		a, b := slabGroup(r, 5), slabGroup(r, 7)
		prev, err := scratch([][]*flexoffer.FlexOffer{a, b}, safe)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]Aggregated, len(prev))
		for i, ag := range prev {
			before[i] = *ag
			before[i].cons = append([]constituent(nil), ag.cons...)
			before[i].bounds = append([]flexoffer.Slice(nil), ag.bounds...)
			before[i].Constituents = append([]*flexoffer.FlexOffer(nil), ag.Constituents...)
		}
		group := append(append([]*flexoffer.FlexOffer{}, a[1:]...), b[:5]...)
		got, reused, err := fromPrior(t, [][]*flexoffer.FlexOffer{group}, prev, safe)
		if err != nil {
			t.Fatal(err)
		}
		if reused != len(group) {
			t.Fatalf("safe=%v: copied %d of %d layouts", safe, reused, len(group))
		}
		ag := got[0]
		for i := range ag.cons {
			ag.cons[i] = constituent{est: -1, lst: -1, totalMin: -1, totalMax: -1, lo: -1, n: -1}
		}
		for i := range ag.bounds {
			ag.bounds[i] = flexoffer.Slice{Min: -99, Max: -99}
		}
		for i := range ag.Constituents {
			ag.Constituents[i] = nil
		}
		for i, p := range prev {
			if !reflect.DeepEqual(*p, before[i]) {
				t.Fatalf("safe=%v: source aggregate %d changed with the aggregate built from it", safe, i)
			}
		}
	}
}

// TestPriorSkipMatchesMemberSearch: under churn that removes, replaces
// and adds members (never more than maxSkip removed in a row), Skip's
// one-comparison shortcut and its member-by-member search both end
// where layoutOf's search of the same group ends, so the next group's
// search starts where its first unchanged member sits.
func TestPriorSkipMatchesMemberSearch(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var groups [][]*flexoffer.FlexOffer
	for range 8 {
		groups = append(groups, slabGroup(r, 1+r.Intn(6)))
	}
	prev, err := scratch(groups, true)
	if err != nil {
		t.Fatal(err)
	}
	prior := Prior(prev)
	var run []*flexoffer.FlexOffer
	for _, g := range groups {
		for _, f := range g {
			switch r.Intn(6) {
			case 0: // removed
			case 1: // replaced
				run = append(run, f.Clone())
			case 2: // new offer before it
				run = append(run, slabGroup(r, 1)[0], f)
			default:
				run = append(run, f)
			}
		}
	}
	var at Cursor
	for lo := 0; lo < len(run); {
		hi := min(len(run), lo+1+r.Intn(5))
		g := run[lo:hi]
		search := at
		for _, f := range g {
			prior.source(&search, f, tightened)
		}
		next := prior.Skip(at, g)
		if prior.settle(next) != prior.settle(search) {
			t.Fatalf("group [%d,%d): Skip ends at %+v, the member search at %+v", lo, hi, next, search)
		}
		at, lo = next, hi
	}
}

// ExamplePrior is the shape of an incremental re-aggregation: the
// second run's group takes three members of the first and one new
// offer, and only the new offer is read.
func ExamplePrior() {
	offers := make([]*flexoffer.FlexOffer, 4)
	for i := range offers {
		offers[i] = flexoffer.MustNew(i, i+2, flexoffer.Slice{Min: 1, Max: 3})
	}
	ctx := context.Background()
	prev, _ := AggregateGroupsSafeParallel(ctx, [][]*flexoffer.FlexOffer{offers[:3]}, ParallelParams{})
	next := [][]*flexoffer.FlexOffer{offers}
	src := Sources{Prior: prev, Starts: []Cursor{Prior(prev).First(0)}}
	ags, reused, _ := AggregateGroupsFromParallel(ctx, next, src, true, ParallelParams{})
	fmt.Println(ags[0].Offer.ID, "layouts copied:", reused)
	// Output: agg(4) layouts copied: 3
}
