package grouping

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
)

// mkOffer builds a minimal valid offer with the given window.
func mkOffer(t testing.TB, est, tf int, slices ...flexoffer.Slice) *flexoffer.FlexOffer {
	t.Helper()
	if len(slices) == 0 {
		slices = []flexoffer.Slice{{Min: 1, Max: 3}}
	}
	f, err := flexoffer.New(est, est+tf, slices...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// randomOffers generates n offers with earliest starts in [0, estRange)
// and time flexibilities in [0, tfMax], profiles 1–4 slices long.
func randomOffers(t testing.TB, rng *rand.Rand, n, estRange, tfMax int) []*flexoffer.FlexOffer {
	t.Helper()
	offers := make([]*flexoffer.FlexOffer, n)
	for i := range offers {
		est := rng.Intn(estRange)
		tf := rng.Intn(tfMax + 1)
		slices := make([]flexoffer.Slice, 1+rng.Intn(4))
		for j := range slices {
			lo := int64(rng.Intn(5))
			slices[j] = flexoffer.Slice{Min: lo, Max: lo + int64(rng.Intn(4))}
		}
		offers[i] = mkOffer(t, est, tf, slices...)
	}
	return offers
}

func TestGroupEmpty(t *testing.T) {
	if Group(nil, Params{}) != nil {
		t.Fatal("grouping no offers should yield no groups")
	}
}

func TestGroupTolerances(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		mkOffer(t, 0, 2), mkOffer(t, 1, 2), mkOffer(t, 5, 2), mkOffer(t, 6, 9),
	}
	groups := Group(offers, Params{ESTTolerance: 1, TFTolerance: -1})
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("EST-tolerance grouping = %d groups, want [2 2]", len(groups))
	}
	// A tight TF tolerance splits the second pair (tf 2 vs 9).
	groups = Group(offers, Params{ESTTolerance: 1, TFTolerance: 3})
	if len(groups) != 3 {
		t.Fatalf("TF-tolerance grouping = %d groups, want 3", len(groups))
	}
	// A size cap of one isolates every offer.
	groups = Group(offers, Params{ESTTolerance: 10, TFTolerance: -1, MaxGroupSize: 1})
	if len(groups) != len(offers) {
		t.Fatalf("size-capped grouping = %d groups, want %d", len(groups), len(offers))
	}
}

func TestGroupPreservesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	offers := randomOffers(t, rng, 50, 20, 6)
	before := append([]*flexoffer.FlexOffer(nil), offers...)
	groups := Group(offers, Params{ESTTolerance: 2, TFTolerance: -1})
	for i := range before {
		if offers[i] != before[i] {
			t.Fatal("Group reordered the input slice")
		}
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(offers) {
		t.Fatalf("groups hold %d offers, want %d", total, len(offers))
	}
}

func TestThresholdAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	offers := randomOffers(t, rng, 40, 12, 4)
	p := Params{ESTTolerance: 2, TFTolerance: 3, MaxGroupSize: 5}
	got, err := Threshold{Params: p}.Group(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	want := Group(offers, p)
	if len(got) != len(want) {
		t.Fatalf("Threshold adapter diverged: %d vs %d groups", len(got), len(want))
	}
}

func TestBalanceAdapter(t *testing.T) {
	pos := mkOffer(t, 0, 2, flexoffer.Slice{Min: 2, Max: 4})
	neg, err := flexoffer.New(0, 2, flexoffer.Slice{Min: -4, Max: -2})
	if err != nil {
		t.Fatal(err)
	}
	got, gerr := Balance{Params: BalanceParams{ESTTolerance: 4}}.Group(context.Background(), []*flexoffer.FlexOffer{pos, neg})
	if gerr != nil {
		t.Fatal(gerr)
	}
	if len(got) != 1 || NetExpectedEnergy(got[0]) != 0 {
		t.Fatalf("balance adapter did not net out: %d groups, net %d", len(got), NetExpectedEnergy(got[0]))
	}
}

func TestOptimizeRequiresMeasureAndCombiner(t *testing.T) {
	if _, err := OptimizeGroups(nil, OptimizeParams{}, nil); !errors.Is(err, ErrNoMeasure) {
		t.Fatalf("missing measure: %v, want ErrNoMeasure", err)
	}
	if _, err := OptimizeGroups(nil, OptimizeParams{Measure: core.TimeMeasure{}}, nil); !errors.Is(err, ErrNoCombiner) {
		t.Fatalf("missing combiner: %v, want ErrNoCombiner", err)
	}
}

// TestGroupSegmentStability pins the invariant incremental scheduling's
// blast-radius bound rests on (internal/inc): when an offer is inserted
// into one EST segment, groups in every other segment keep their exact
// member pointers — so their content-addressed cache entries, and with
// them the cached aggregates and placements, survive the change.
func TestGroupSegmentStability(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const clusters, spacing = 6, 10
	var offers []*flexoffer.FlexOffer
	for i := 0; i < 120; i++ {
		est := (i % clusters) * spacing
		offers = append(offers, mkOffer(t, est+rng.Intn(2), rng.Intn(4)))
	}
	p := Params{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 8}
	before := Group(offers, p)

	// Insert one offer into segment 2 (EST 20).
	after := Group(append(append([]*flexoffer.FlexOffer(nil), offers...), mkOffer(t, 20, 1)), p)
	if len(after) < len(before) {
		t.Fatalf("insertion shrank the grouping: %d -> %d groups", len(before), len(after))
	}

	segment := func(g []*flexoffer.FlexOffer) int { return g[0].EarliestStart / spacing }
	match := func(groups [][]*flexoffer.FlexOffer, want []*flexoffer.FlexOffer) bool {
		for _, g := range groups {
			if len(g) != len(want) {
				continue
			}
			same := true
			for i := range g {
				if g[i] != want[i] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
		return false
	}
	for _, g := range before {
		if segment(g) == 2 {
			continue // the perturbed segment may legitimately regroup
		}
		if !match(after, g) {
			t.Errorf("segment-%d group of %d lost its exact membership after an insert into segment 2",
				segment(g), len(g))
		}
	}
}
