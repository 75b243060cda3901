package flex

import (
	"context"
	"math/rand"
	"testing"
)

func TestFacadeWorkloadHelpers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ev, err := GenerateOffer(r, EV)
	if err != nil || ev.Kind() != Positive {
		t.Fatalf("GenerateOffer(EV) = %v, %v", ev, err)
	}
	pv, err := GenerateOffer(r, SolarPanel)
	if err != nil || pv.Kind() != Negative {
		t.Fatalf("GenerateOffer(SolarPanel) = %v, %v", pv, err)
	}
	if _, err := GenerateOffer(r, VehicleToGrid); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Device{HeatPump, Dishwasher, Refrigerator, WindTurbine} {
		if _, err := GenerateOffer(r, d); err != nil {
			t.Fatalf("GenerateOffer(%v): %v", d, err)
		}
	}
	wind := WindProfile(r, 2*SlotsPerDay, 20)
	if wind.Len() != 2*SlotsPerDay {
		t.Fatalf("wind horizon = %d", wind.Len())
	}
	prices := DayAheadPrices(r, 2*SlotsPerDay)
	if len(prices) != 2*SlotsPerDay {
		t.Fatalf("price horizon = %d", len(prices))
	}
	if len(DefaultMix()) == 0 || len(ConsumptionMix()) == 0 {
		t.Fatal("mixes empty")
	}
}

func TestFacadeMarketHelpers(t *testing.T) {
	f, err := NewFlexOffer(0, 4, Slice{Min: 3, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	prices := PriceCurve{10, 10, 1, 10, 10}
	v, err := ValueOfFlexibility(f, prices)
	if err != nil || v.Value() != 27 {
		t.Fatalf("value = %g, %v; want 27", v.Value(), err)
	}
	a, err := CheapestAssignment(f, prices)
	if err != nil || a.Start != 2 {
		t.Fatalf("cheapest start = %d, %v; want 2", a.Start, err)
	}
	cost, err := Settlement(a.Series(), a.Series(), prices, 5)
	if err != nil || cost != 3 {
		t.Fatalf("settlement = %g, %v; want 3", cost, err)
	}
}

func TestFacadePortfolio(t *testing.T) {
	big, err := NewFlexOffer(0, 2, Slice{Min: 40, Max: 50})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewFlexOffer(0, 2, Slice{Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ags []*Aggregated
	for _, f := range []*FlexOffer{big, small} {
		ag, err := AggregateSafe([]*FlexOffer{f})
		if err != nil {
			t.Fatal(err)
		}
		ags = append(ags, ag)
	}
	p, err := BuildPortfolio(ags, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tradeable) != 1 || len(p.Remainder) != 1 {
		t.Fatalf("portfolio split %d/%d", len(p.Tradeable), len(p.Remainder))
	}
	lots, total, err := p.Value(PriceCurve{5, 5, 1, 5, 5}, ProductMeasure{})
	if err != nil || len(lots) != 1 || total <= 0 {
		t.Fatalf("portfolio value = %d lots, %g, %v", len(lots), total, err)
	}
}

func TestFacadeOptimizeGroupsAndAlignment(t *testing.T) {
	a, err := NewFlexOffer(0, 4, Slice{Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFlexOffer(0, 0, Slice{Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := OptimizeGroups([]*FlexOffer{a, a.Clone(), b}, OptimizeParams{
		Measure:         VectorMeasure{},
		MaxLossFraction: 0.45,
		ESTTolerance:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	ag, err := AggregateAligned([]*FlexOffer{a, b}, AlignLatest)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Offer.TimeFlexibility() != 0 {
		t.Fatalf("latest-aligned tf = %d, want min = 0", ag.Offer.TimeFlexibility())
	}
	if AlignEarliest.String() != "earliest" || AlignLatest.String() != "latest" {
		t.Error("alignment names wrong through the facade")
	}
}

func TestFacadeScheduleAndImprove(t *testing.T) {
	offers := []*FlexOffer{}
	for i := 0; i < 6; i++ {
		f, err := NewFlexOffer(0, 6, Slice{Min: 2, Max: 2})
		if err != nil {
			t.Fatal(err)
		}
		offers = append(offers, f)
	}
	target := NewSeries(0, 2, 2, 2, 2, 2, 2, 2)
	eng := New(WithWorkers(1))
	defer eng.Close()
	ctx := context.Background()
	base, err := eng.Schedule(ctx, offers, target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Improve(ctx, offers, target, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance(target) > 4 {
		t.Fatalf("imbalance = %g", res.Imbalance(target))
	}
	capped, err := eng.Schedule(ctx, offers, target, WithPeakCap(2))
	if err != nil {
		t.Fatal(err)
	}
	if capped.PeakLoad() > 2 {
		t.Fatalf("peak = %d with cap 2", capped.PeakLoad())
	}
}

func TestFacadeExtensionMeasures(t *testing.T) {
	if len(ExtensionMeasures()) != 3 {
		t.Fatal("expected 3 extension measures")
	}
	f, err := NewFlexOffer(0, 2, Slice{Min: 0, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := EntropyFlexibility(f); e <= 3 || e >= 3.3 {
		t.Fatalf("entropy = %g, want log2(9)", e)
	}
	for _, m := range ExtensionMeasures() {
		if err := VerifyCharacteristics(m); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestFacadeBalanceGroupsAndSafeAll(t *testing.T) {
	a, err := NewFlexOffer(0, 2, Slice{Min: 3, Max: 5})
	if err != nil {
		t.Fatal(err)
	}
	neg := a.ScaleEnergy(-1)
	groups := BalanceGroups([]*FlexOffer{a, neg}, BalanceParams{ESTTolerance: 3})
	if len(groups) != 1 {
		t.Fatalf("balance groups = %d, want 1", len(groups))
	}
	eng := New(WithWorkers(1), WithSafe(true), WithGrouping(GroupParams{ESTTolerance: 1, TFTolerance: -1}))
	defer eng.Close()
	ags, err := eng.Aggregate(context.Background(), []*FlexOffer{a, a.Clone()})
	if err != nil || len(ags) != 1 {
		t.Fatalf("safe all = %d, %v", len(ags), err)
	}
	kept, err := RetainedFraction(ags, VectorMeasure{})
	if err != nil || kept <= 0 {
		t.Fatalf("retained = %g, %v", kept, err)
	}
}
