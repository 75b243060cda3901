package aggregate

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/timeseries"
)

// sl is shorthand for a slice literal in test fixtures.
func sl(min, max int64) flexoffer.Slice { return flexoffer.Slice{Min: min, Max: max} }

func TestAggregateEmptyGroup(t *testing.T) {
	if _, err := Aggregate(nil); !errors.Is(err, ErrEmptyGroup) {
		t.Fatalf("got %v, want ErrEmptyGroup", err)
	}
}

func TestAggregateSingleton(t *testing.T) {
	f := flexoffer.MustNew(2, 5, sl(1, 3), sl(0, 2))
	ag, err := Aggregate([]*flexoffer.FlexOffer{f})
	if err != nil {
		t.Fatal(err)
	}
	a := ag.Offer
	if a.EarliestStart != 2 || a.LatestStart != 5 {
		t.Errorf("window = [%d,%d], want [2,5]", a.EarliestStart, a.LatestStart)
	}
	if a.NumSlices() != 2 || a.Slices[0] != f.Slices[0] || a.Slices[1] != f.Slices[1] {
		t.Errorf("slices = %v", a.Slices)
	}
	if a.TotalMin != f.TotalMin || a.TotalMax != f.TotalMax {
		t.Errorf("totals = [%d,%d]", a.TotalMin, a.TotalMax)
	}
}

func TestAggregateTwoOffers(t *testing.T) {
	// f at [1,4] with 2 slices, g at [2,3] with 2 slices: aggregate is
	// anchored at min tes = 1, profile spans slots 1..3 (f at 1,2; g at
	// 2,3), tf = min(3,1) = 1.
	f := flexoffer.MustNew(1, 4, sl(1, 2), sl(1, 2))
	g := flexoffer.MustNew(2, 3, sl(10, 20), sl(10, 20))
	ag, err := Aggregate([]*flexoffer.FlexOffer{f, g})
	if err != nil {
		t.Fatal(err)
	}
	a := ag.Offer
	if a.EarliestStart != 1 || a.LatestStart != 2 {
		t.Errorf("window = [%d,%d], want [1,2]", a.EarliestStart, a.LatestStart)
	}
	wantSlices := []flexoffer.Slice{{Min: 1, Max: 2}, {Min: 11, Max: 22}, {Min: 10, Max: 20}}
	if a.NumSlices() != 3 {
		t.Fatalf("slices = %v", a.Slices)
	}
	for i, w := range wantSlices {
		if a.Slices[i] != w {
			t.Errorf("slice %d = %v, want %v", i, a.Slices[i], w)
		}
	}
	if a.TotalMin != 22 || a.TotalMax != 44 {
		t.Errorf("totals = [%d,%d], want [22,44]", a.TotalMin, a.TotalMax)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("aggregate invalid: %v", err)
	}
}

func TestAggregateRejectsInvalidConstituent(t *testing.T) {
	bad := &flexoffer.FlexOffer{EarliestStart: 3, LatestStart: 1, Slices: []flexoffer.Slice{{Min: 0, Max: 1}}}
	if _, err := Aggregate([]*flexoffer.FlexOffer{bad}); err == nil {
		t.Fatal("invalid constituent must be rejected")
	}
}

func TestAggregateTimeFlexibilityIsMinimum(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 7, sl(1, 2)),
		flexoffer.MustNew(0, 3, sl(1, 2)),
		flexoffer.MustNew(0, 5, sl(1, 2)),
	}
	ag, err := Aggregate(offers)
	if err != nil {
		t.Fatal(err)
	}
	if tf := ag.Offer.TimeFlexibility(); tf != 3 {
		t.Errorf("aggregate tf = %d, want min = 3", tf)
	}
}

func TestDisaggregatePreservesSlotSums(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(1, 4, sl(1, 3), sl(0, 2)),
		flexoffer.MustNew(2, 6, sl(2, 5)),
		flexoffer.MustNew(1, 3, sl(0, 1), sl(0, 1), sl(0, 1)),
	}
	ag, err := Aggregate(offers)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ag.Offer.EarliestAssignment()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := ag.Disaggregate(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(offers) {
		t.Fatalf("%d parts for %d offers", len(parts), len(offers))
	}
	sum := parts[0].Series()
	for _, p := range parts[1:] {
		sum = addSeries(sum, p.Series())
	}
	if !sum.EquivalentZeroPadded(a.Series()) {
		t.Errorf("slot sums differ: parts %v vs aggregate %v", sum, a.Series())
	}
}

func TestDisaggregateAppliesCommonShift(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(1, 4, sl(1, 2)),
		flexoffer.MustNew(3, 5, sl(1, 2)),
	}
	ag, err := Aggregate(offers)
	if err != nil {
		t.Fatal(err)
	}
	// Shift the aggregate by δ=2 (within tf = min(3,2) = 2).
	a := flexoffer.NewAssignment(ag.Offer.EarliestStart+2, make([]int64, ag.Offer.NumSlices())...)
	for i := range a.Values {
		a.Values[i] = ag.Offer.Slices[i].Min
	}
	parts, err := ag.Disaggregate(a)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Start != 3 || parts[1].Start != 5 {
		t.Errorf("starts = %d,%d; want 3,5", parts[0].Start, parts[1].Start)
	}
}

func TestDisaggregateRejectsForeignAssignment(t *testing.T) {
	ag, err := Aggregate([]*flexoffer.FlexOffer{flexoffer.MustNew(0, 2, sl(1, 2))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.Disaggregate(flexoffer.NewAssignment(9, 1)); !errors.Is(err, ErrNotConstituent) {
		t.Errorf("got %v, want ErrNotConstituent", err)
	}
}

func TestDisaggregateRepairsTotals(t *testing.T) {
	// Constituent g needs cmin=2 although its slice minima sum to 0;
	// naive left-to-right water-filling starves it when f absorbs the
	// surplus first.
	f := flexoffer.MustNew(0, 2, sl(0, 2), sl(0, 2))
	g, err := flexoffer.NewWithTotals(0, 2, []flexoffer.Slice{{Min: 0, Max: 2}, {Min: 0, Max: 2}}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Aggregate([]*flexoffer.FlexOffer{f, g})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate totals: [2, 8]. Assign exactly 2 units.
	a := flexoffer.NewAssignment(0, 2, 0)
	if err := ag.Offer.ValidateAssignment(a); err != nil {
		t.Fatal(err)
	}
	parts, err := ag.Disaggregate(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if err := ag.Constituents[i].ValidateAssignment(p); err != nil {
			t.Errorf("part %d invalid after repair: %v", i, err)
		}
	}
	if got := parts[1].TotalEnergy(); got < 2 {
		t.Errorf("repair failed: g received %d, needs ≥ 2", got)
	}
}

func TestLossProductMeasure(t *testing.T) {
	// Two identical offers with tf=3: set product = 2·(3·1)=6;
	// aggregate has tf=3, ef=2 → product 6; loss 0 here. With unequal
	// tf the min-rule loses time flexibility.
	a := flexoffer.MustNew(0, 3, sl(0, 1))
	b := flexoffer.MustNew(0, 1, sl(0, 1))
	ag, err := Aggregate([]*flexoffer.FlexOffer{a, b})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := ag.Loss(core.ProductMeasure{})
	if err != nil {
		t.Fatal(err)
	}
	// set = 3·1 + 1·1 = 4; aggregate = tf 1 · ef 2 = 2; loss = 2.
	if loss != 2 {
		t.Errorf("product loss = %g, want 2", loss)
	}
}

func TestLossNonNegativeForCanonicalMeasuresOnUniformGroups(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 4, sl(1, 3), sl(0, 2)),
		flexoffer.MustNew(1, 4, sl(2, 4)),
		flexoffer.MustNew(0, 6, sl(0, 2), sl(0, 2)),
	}
	ag, err := Aggregate(offers)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Measure{
		core.TimeMeasure{}, core.ProductMeasure{}, core.VectorMeasure{},
	} {
		loss, err := ag.Loss(m)
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if loss < 0 {
			t.Errorf("%s: negative loss %g on positive offers", m.Name(), loss)
		}
	}
}

func TestGroupRespectsTolerances(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, sl(1, 2)),
		flexoffer.MustNew(1, 3, sl(1, 2)),
		flexoffer.MustNew(9, 11, sl(1, 2)),
		flexoffer.MustNew(10, 12, sl(1, 2)),
	}
	groups := grouping.Group(offers, GroupParams{ESTTolerance: 2, TFTolerance: -1})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	for _, g := range groups {
		lo, hi := g[0].EarliestStart, g[0].EarliestStart
		for _, f := range g {
			if f.EarliestStart < lo {
				lo = f.EarliestStart
			}
			if f.EarliestStart > hi {
				hi = f.EarliestStart
			}
		}
		if hi-lo > 2 {
			t.Errorf("group EST spread %d exceeds tolerance", hi-lo)
		}
	}
}

func TestGroupTFToleranceAndSizeCap(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 0, sl(1, 2)),
		flexoffer.MustNew(0, 9, sl(1, 2)),
		flexoffer.MustNew(0, 1, sl(1, 2)),
	}
	groups := grouping.Group(offers, GroupParams{ESTTolerance: 5, TFTolerance: 1})
	// tf values 0, 9, 1: sorted by tf → 0,1 group; 9 alone.
	if len(groups) != 2 {
		t.Fatalf("TF tolerance: got %d groups, want 2", len(groups))
	}
	groups = grouping.Group(offers, GroupParams{ESTTolerance: 5, TFTolerance: -1, MaxGroupSize: 1})
	if len(groups) != 3 {
		t.Fatalf("size cap: got %d groups, want 3", len(groups))
	}
	if grouping.Group(nil, GroupParams{}) != nil {
		t.Error("empty input should give nil groups")
	}
}

func TestAggregateAll(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, sl(1, 2)),
		flexoffer.MustNew(0, 2, sl(1, 2)),
		flexoffer.MustNew(8, 10, sl(1, 2)),
	}
	ags, err := AggregateAll(offers, GroupParams{ESTTolerance: 1, TFTolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ags) != 2 {
		t.Fatalf("got %d aggregates, want 2", len(ags))
	}
	if len(ags[0].Constituents) != 2 || len(ags[1].Constituents) != 1 {
		t.Errorf("constituent counts = %d, %d", len(ags[0].Constituents), len(ags[1].Constituents))
	}
}

func TestBalanceGroupsMixSigns(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, sl(3, 5)),   // consumption ≈ +4
		flexoffer.MustNew(0, 2, sl(-5, -3)), // production ≈ −4
		flexoffer.MustNew(0, 2, sl(2, 2)),   // +2
		flexoffer.MustNew(0, 2, sl(-2, -2)), // −2
	}
	groups := grouping.BalanceGroups(offers, grouping.BalanceParams{ESTTolerance: 2})
	for _, g := range groups {
		if net := grouping.NetExpectedEnergy(g); net != 0 {
			t.Errorf("group net energy = %d, want 0", net)
		}
	}
}

func TestBalanceGroupsAllSameSign(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, sl(1, 1)),
		flexoffer.MustNew(0, 2, sl(2, 2)),
	}
	groups := grouping.BalanceGroups(offers, grouping.BalanceParams{ESTTolerance: 2})
	var n int
	for _, g := range groups {
		n += len(g)
	}
	if n != 2 {
		t.Fatalf("offers lost: %d grouped of 2", n)
	}
	if grouping.BalanceGroups(nil, grouping.BalanceParams{}) != nil {
		t.Error("empty input should give nil groups")
	}
}

func TestBalancedAggregateIsMixed(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, sl(3, 5)),
		flexoffer.MustNew(0, 2, sl(-5, -3)),
	}
	ag, err := Aggregate(offers)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Offer.Kind() != flexoffer.Mixed {
		t.Errorf("balanced aggregate kind = %v, want mixed (Section 4)", ag.Offer.Kind())
	}
	// Vector flexibility still expresses it (Section 4's point).
	if _, err := (core.VectorMeasure{}).Value(ag.Offer); err != nil {
		t.Errorf("vector measure on mixed aggregate: %v", err)
	}
}

// randomOfferForAgg builds random valid offers for property tests.
func randomOfferForAgg(r *rand.Rand) *flexoffer.FlexOffer {
	n := 1 + r.Intn(3)
	slices := make([]flexoffer.Slice, n)
	for i := range slices {
		lo := int64(r.Intn(7) - 3)
		slices[i] = flexoffer.Slice{Min: lo, Max: lo + int64(r.Intn(3))}
	}
	es := r.Intn(4)
	f := flexoffer.MustNew(es, es+r.Intn(4), slices...)
	if r.Intn(2) == 0 && f.SumMax() > f.SumMin() {
		span := f.SumMax() - f.SumMin()
		lo := f.SumMin() + r.Int63n(span+1)
		f.TotalMin = lo
		f.TotalMax = lo + r.Int63n(f.SumMax()-lo+1)
	}
	return f
}

func TestPropertyDisaggregationRoundTrips(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		group := make([]*flexoffer.FlexOffer, 1+r.Intn(4))
		for i := range group {
			group[i] = randomOfferForAgg(r)
		}
		ag, err := Aggregate(group)
		if err != nil {
			return false
		}
		a, err := ag.Offer.EarliestAssignment()
		if err != nil {
			return false
		}
		parts, err := ag.Disaggregate(a)
		if errors.Is(err, ErrRepairInfeasible) {
			return true // documented limitation of single-hop repair
		}
		if err != nil {
			return false
		}
		sum := parts[0].Series()
		for i, p := range parts {
			if ag.Constituents[i].ValidateAssignment(p) != nil {
				return false
			}
			if i > 0 {
				sum = addSeries(sum, p.Series())
			}
		}
		return sum.EquivalentZeroPadded(a.Series())
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAggregateValidAndConservesTotals(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		group := make([]*flexoffer.FlexOffer, 1+r.Intn(5))
		var wantMin, wantMax int64
		for i := range group {
			group[i] = randomOfferForAgg(r)
			wantMin += group[i].TotalMin
			wantMax += group[i].TotalMax
		}
		ag, err := Aggregate(group)
		if err != nil {
			return false
		}
		return ag.Offer.Validate() == nil &&
			ag.Offer.TotalMin == wantMin && ag.Offer.TotalMax == wantMax
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// addSeries wraps timeseries.Add for readability in tests.
func addSeries(a, b timeseries.Series) timeseries.Series { return timeseries.Add(a, b) }
