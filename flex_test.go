package flex

import (
	"context"
	"math/big"
	"reflect"
	"testing"
)

// TestPublicAPIPaperRunningExample exercises the facade end-to-end on
// the paper's Figure 1 flex-offer.
func TestPublicAPIPaperRunningExample(t *testing.T) {
	f, err := NewFlexOffer(1, 6,
		Slice{Min: 1, Max: 3}, Slice{Min: 2, Max: 4},
		Slice{Min: 0, Max: 5}, Slice{Min: 0, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	if TimeFlexibility(f) != 5 || EnergyFlexibility(f) != 12 || ProductFlexibility(f) != 60 {
		t.Fatalf("basic measures wrong: tf=%d ef=%d product=%d",
			TimeFlexibility(f), EnergyFlexibility(f), ProductFlexibility(f))
	}
	if v := VectorFlexibility(f); v.Time != 5 || v.Energy != 12 {
		t.Fatalf("vector = %v", v)
	}
	if got := AssignmentFlexibility(f); got.Cmp(big.NewInt(6*3*3*6*4)) != 0 {
		t.Fatalf("assignments = %v", got)
	}
	if _, err := SeriesFlexibility(f, L1); err != nil {
		t.Fatal(err)
	}
	if _, err := RelativeAreaFlexibility(f); err != nil {
		t.Fatal(err)
	}
	if UnionAreaSize(f) <= 0 {
		t.Fatal("union area must be positive")
	}
	if _, err := DisplacementFlexibility(f); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIBuilderAndKinds(t *testing.T) {
	f, err := NewBuilder().StartWindow(0, 2).Slice(-2, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != Mixed {
		t.Fatalf("kind = %v, want Mixed", f.Kind())
	}
}

func TestPublicAPIMeasureRegistry(t *testing.T) {
	if len(AllMeasures()) != 8 || len(MeasureNames()) != 8 {
		t.Fatal("eight canonical measures expected")
	}
	m, err := LookupMeasure("product")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCharacteristics(m); err != nil {
		t.Fatal(err)
	}
	cols, rows, cells := Table1(AllMeasures())
	if len(cols) != 8 || len(rows) != 8 || len(cells) != 8 {
		t.Fatal("Table 1 shape wrong")
	}
}

func TestPublicAPIWeightedMeasure(t *testing.T) {
	w, err := NewWeightedMeasure("blend", []Measure{TimeMeasure{}, EnergyMeasure{}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlexOffer(0, 4, Slice{Min: 0, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.Value(f)
	if err != nil || v != 3 { // (4+2)/2
		t.Fatalf("blend = %g, %v", v, err)
	}
}

func TestPublicAPIAggregation(t *testing.T) {
	a, err := NewFlexOffer(0, 4, Slice{Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFlexOffer(1, 3, Slice{Min: 2, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Aggregate([]*FlexOffer{a, b})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := ag.Loss(ProductMeasure{})
	if err != nil {
		t.Fatal(err)
	}
	if loss < 0 {
		t.Fatalf("loss = %g", loss)
	}
	groups := GroupOffers([]*FlexOffer{a, b}, GroupParams{ESTTolerance: 4, TFTolerance: -1})
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	eng := New(WithWorkers(1), WithGrouping(GroupParams{ESTTolerance: 4, TFTolerance: -1}))
	defer eng.Close()
	ags, err := eng.Aggregate(context.Background(), []*FlexOffer{a, b})
	if err != nil || len(ags) != 1 {
		t.Fatalf("Engine.Aggregate = %d aggregates, %v", len(ags), err)
	}
	neg := a.ScaleEnergy(-1)
	bg := BalanceGroups([]*FlexOffer{a, neg}, BalanceParams{ESTTolerance: 4})
	if len(bg) == 0 {
		t.Fatal("balance groups empty")
	}
}

// TestPublicAPIParallelAggregation exercises the engine's worker-pool
// configurations: every worker count, error mode and safe setting, on
// one shard and on several, must match the serial oracle.
func TestPublicAPIParallelAggregation(t *testing.T) {
	var offers []*FlexOffer
	for i := 0; i < 40; i++ {
		f, err := NewFlexOffer(i/2, i/2+3,
			Slice{Min: int64(i % 3), Max: int64(i%3 + 2)},
			Slice{Min: 0, Max: int64(i%5 + 1)})
		if err != nil {
			t.Fatal(err)
		}
		offers = append(offers, f)
	}
	gp := GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 6}
	for _, c := range []struct {
		shards, workers int
		mode            ErrorMode
		safe            bool
	}{
		{shards: 1},                         // one worker per CPU
		{shards: 1, workers: 1},             // serial
		{shards: 1, workers: 3},             // pinned pool
		{shards: 1, mode: CollectAll},       // collect-all reporting
		{shards: 1, workers: 2, safe: true}, // safe parallel
		{shards: 1, workers: 1, safe: true}, // safe serial
		{shards: 3, workers: 2},             // scatter-gather
		{shards: 3, workers: 1, safe: true}, // serial shards
	} {
		eng := NewSharded(c.shards, WithGrouping(gp), WithWorkers(c.workers), WithErrorMode(c.mode), WithSafe(c.safe))
		got, err := eng.Aggregate(context.Background(), offers)
		eng.Close()
		if err != nil {
			t.Fatalf("config %+v: %v", c, err)
		}
		if want := serialAggregates(t, offers, gp, c.safe); !reflect.DeepEqual(want, got) {
			t.Fatalf("config %+v diverges from the serial oracle", c)
		}
	}
}

func TestPublicAPISeries(t *testing.T) {
	s := NewSeries(2, 1, 2, 3)
	if s.Sum() != 6 || s.Start != 2 {
		t.Fatalf("series = %v", s)
	}
	a := NewAssignment(1, 4, 5)
	if a.TotalEnergy() != 9 {
		t.Fatalf("assignment total = %d", a.TotalEnergy())
	}
}
