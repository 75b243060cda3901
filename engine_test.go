package flex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/sched"
)

// engineTestFleet builds a reproducible mixed population and a wind
// target sized to its expected energy.
func engineTestFleet(t testing.TB, n int) ([]*FlexOffer, Series) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	offers, err := Population(rng, n, 2, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	horizon := 3 * SlotsPerDay
	target := WindProfile(rng, horizon, expected/int64(horizon))
	return offers, target
}

var engineTestGroup = GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24}

// TestEngineAggregateEquivalence pins the acceptance criterion that the
// Engine's aggregation output is bit-identical to the serial oracle for
// every worker count.
func TestEngineAggregateEquivalence(t *testing.T) {
	offers, _ := engineTestFleet(t, 300)
	want := serialAggregates(t, offers, engineTestGroup, false)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		eng := New(WithWorkers(workers), WithGrouping(engineTestGroup))
		got, err := eng.Aggregate(context.Background(), offers)
		eng.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: Engine.Aggregate diverged from the serial oracle", workers)
		}
	}
}

// TestEnginePipelineEquivalence pins the same criterion for the full
// chain: Engine.Pipeline must reproduce the serial oracle's output —
// aggregates, schedule, disaggregation and load — for every worker
// count.
func TestEnginePipelineEquivalence(t *testing.T) {
	offers, target := engineTestFleet(t, 300)
	want := serialPipeline(t, offers, target, engineTestGroup, true, 40)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		eng := New(WithWorkers(workers), WithGrouping(engineTestGroup), WithSafe(true), WithPeakCap(40))
		got, err := eng.Pipeline(context.Background(), offers, target)
		eng.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: Engine.Pipeline diverged from the serial oracle", workers)
		}
	}
}

// TestEngineScheduleEquivalence checks Engine.Schedule against the
// serial scheduler, cap included.
func TestEngineScheduleEquivalence(t *testing.T) {
	offers, target := engineTestFleet(t, 120)
	for _, cap := range []int64{0, 50} {
		want, err := sched.Schedule(offers, target, sched.Options{PeakCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(WithWorkers(2), WithPeakCap(cap))
		got, err := eng.Schedule(context.Background(), offers, target)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cap=%d: Engine.Schedule diverged from sched.Schedule", cap)
		}
	}
}

// TestEnginePeakCapConsistentAcrossPaths pins that one engine option
// set applies the same cap whether the aggregates
// are scheduled through Pipeline or handed to Schedule directly, so the
// two paths can never silently disagree.
func TestEnginePeakCapConsistentAcrossPaths(t *testing.T) {
	offers, target := engineTestFleet(t, 200)
	const cap = 35
	eng := New(WithWorkers(3), WithGrouping(engineTestGroup), WithSafe(true), WithPeakCap(cap))
	defer eng.Close()
	pipe, err := eng.Pipeline(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	aggOffers := make([]*FlexOffer, len(pipe.Aggregates))
	for i, ag := range pipe.Aggregates {
		aggOffers[i] = ag.Offer
	}
	direct, err := eng.Schedule(context.Background(), aggOffers, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Assignments, pipe.AggregateSchedule.Assignments) {
		t.Error("Schedule and Pipeline placed the same aggregates differently under one engine cap")
	}
	if !direct.Load.Equal(pipe.Load) {
		t.Error("Schedule and Pipeline produced different loads under one engine cap")
	}
}

// TestEngineImproveEquivalence checks Engine.Improve against the
// serial local search.
func TestEngineImproveEquivalence(t *testing.T) {
	offers, target := engineTestFleet(t, 80)
	base, err := sched.Schedule(offers, target, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.Improve(offers, target, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(WithWorkers(2))
	defer eng.Close()
	got, err := eng.Improve(context.Background(), offers, target, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("Engine.Improve diverged from sched.Improve")
	}
}

// TestEngineDisaggregateEquivalence checks Engine.Disaggregate against
// the serial per-aggregate oracle, on one shard and on several.
func TestEngineDisaggregateEquivalence(t *testing.T) {
	offers, target := engineTestFleet(t, 200)
	eng := New(WithWorkers(4), WithGrouping(engineTestGroup), WithSafe(true))
	defer eng.Close()
	ags, err := eng.Aggregate(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	aggOffers := make([]*FlexOffer, len(ags))
	for i, ag := range ags {
		aggOffers[i] = ag.Offer
	}
	sr, err := eng.Schedule(context.Background(), aggOffers, target)
	if err != nil {
		t.Fatal(err)
	}
	want := serialDisaggregate(t, ags, sr.Assignments)
	got, err := eng.Disaggregate(context.Background(), ags, sr.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("Engine.Disaggregate diverged from the serial oracle")
	}
	sharded := NewSharded(3, WithWorkers(2))
	defer sharded.Close()
	got, err = sharded.Disaggregate(context.Background(), ags, sr.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("3-shard Engine.Disaggregate diverged from the serial oracle")
	}
}

// expectedMeasureTable computes Engine.Measures' result serially
// through the public measure API — the baseline the engine must match.
func expectedMeasureTable(t *testing.T, measures []Measure, offers []*FlexOffer) *MeasureTable {
	t.Helper()
	mt := &MeasureTable{
		Names:  make([]string, len(measures)),
		Values: make([][]float64, len(offers)),
		Set:    make([]float64, len(measures)),
	}
	for j, m := range measures {
		mt.Names[j] = m.Name()
		v, err := m.SetValue(offers)
		if err != nil {
			v = math.NaN()
		}
		mt.Set[j] = v
	}
	for i, f := range offers {
		row := make([]float64, len(measures))
		for j, m := range measures {
			v, err := m.Value(f)
			if err != nil {
				v = math.NaN()
			}
			row[j] = v
		}
		mt.Values[i] = row
	}
	return mt
}

// measureTablesEqual compares tables bit for bit, so +0 and −0 (which
// encode as 0 and -0 on the wire) differ, treating NaN as equal to NaN
// (every NaN encodes as null).
func measureTablesEqual(a, b *MeasureTable) bool {
	if !reflect.DeepEqual(a.Names, b.Names) || len(a.Values) != len(b.Values) || len(a.Set) != len(b.Set) {
		return false
	}
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for j := range a.Set {
		if !eq(a.Set[j], b.Set[j]) {
			return false
		}
	}
	for i := range a.Values {
		if len(a.Values[i]) != len(b.Values[i]) {
			return false
		}
		for j := range a.Values[i] {
			if !eq(a.Values[i][j], b.Values[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestEngineMeasures checks the fan-out measure evaluation against the
// serial baseline, under the default norm and WithNorm(L2), for serial
// and pooled engines. DefaultMix includes producers, so NaN cells (the
// area measures on production/mixed offers) are exercised too.
func TestEngineMeasures(t *testing.T) {
	offers, _ := engineTestFleet(t, 150)
	for _, norm := range []Norm{L1, L2} {
		for _, workers := range []int{1, 4} {
			eng := New(WithWorkers(workers), WithNorm(norm))
			want := expectedMeasureTable(t, measureSet(eng.opts.norm), offers)
			got, err := eng.Measures(context.Background(), offers)
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !measureTablesEqual(want, got) {
				t.Fatalf("norm=%v workers=%d: Engine.Measures diverged from serial baseline", norm, workers)
			}
			// The rows share one slab; appending to one must not
			// overwrite the next.
			next := got.Values[1][0]
			if row := append(got.Values[0], -1); row[len(row)-1] != -1 || got.Values[1][0] != next {
				t.Fatalf("norm=%v workers=%d: appending to row 0 overwrote row 1", norm, workers)
			}
		}
	}
	// The norm option must actually reach the vector measure.
	l1 := New(WithWorkers(1))
	defer l1.Close()
	l2 := New(WithWorkers(1), WithNorm(L2))
	defer l2.Close()
	a, err := l1.Measures(context.Background(), offers[:1])
	if err != nil {
		t.Fatal(err)
	}
	b, err := l2.Measures(context.Background(), offers[:1])
	if err != nil {
		t.Fatal(err)
	}
	if a.Names[3] == b.Names[3] {
		t.Errorf("vector measure name did not change with the norm: %q vs %q", a.Names[3], b.Names[3])
	}
}

// TestEngineMeasuresAllocsFlat pins the measures evaluator's
// allocation budget: the rows live in one slab and the per-offer
// kernels allocate nothing, so a serial one-shard engine makes the same
// number of allocations for 20k offers as for 1k, under every norm.
func TestEngineMeasuresAllocsFlat(t *testing.T) {
	offers, _ := engineTestFleet(t, 20000)
	ctx := context.Background()
	for _, norm := range []Norm{L1, L2, LInf} {
		eng := New(WithWorkers(1), WithNorm(norm))
		allocs := func(fleet []*FlexOffer) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := eng.Measures(ctx, fleet); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(offers[:1000]), allocs(offers)
		eng.Close()
		if large > small {
			t.Errorf("norm=%v: Engine.Measures made %v allocations for 20k offers, %v for 1k: allocations grow with the fleet",
				norm, large, small)
		}
	}
}

// TestEngineMeasuresUndefinedCells pins the set row folded from the
// per-offer rows against SetValue where cells are undefined: offers
// with TotalMin = TotalMax = 0 make relative_area fail (ErrZeroTotals),
// which must turn its set value NaN wherever in the fleet they sit,
// next to mixed offers and under every norm and shard count. An empty
// fleet has no set values at all (ErrEmptySet).
func TestEngineMeasuresUndefinedCells(t *testing.T) {
	mix, _ := engineTestFleet(t, 60)
	zero := &FlexOffer{EarliestStart: 2, LatestStart: 5, Slices: []Slice{{Min: -2, Max: 2}, {Min: 0, Max: 1}}}
	flat := &FlexOffer{EarliestStart: 0, LatestStart: 0, Slices: []Slice{{Min: 0, Max: 0}}}
	mixed := &FlexOffer{EarliestStart: 1, LatestStart: 4, Slices: []Slice{{Min: -3, Max: 4}, {Min: -1, Max: 2}}, TotalMin: -2, TotalMax: 5}
	for _, f := range []*FlexOffer{zero, flat, mixed} {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	fleets := map[string][]*FlexOffer{
		"zero totals first": append([]*FlexOffer{zero, mixed}, mix...),
		"zero totals last":  append(append([]*FlexOffer{mixed}, mix...), flat),
		"zero totals only":  {zero, flat},
		"mixed only":        {mixed, mixed, mixed},
		"empty":             nil,
	}
	const relArea = 7
	for name, offers := range fleets {
		for _, norm := range []Norm{L1, L2, LInf} {
			want := expectedMeasureTable(t, measureSet(norm), offers)
			if want.Names[relArea] != "relative_area" {
				t.Fatalf("column %d is %q", relArea, want.Names[relArea])
			}
			if undefined := name != "mixed only"; undefined != math.IsNaN(want.Set[relArea]) {
				t.Fatalf("%s: oracle relative_area set value %v", name, want.Set[relArea])
			}
			for _, shards := range []int{1, 3} {
				eng := NewSharded(shards, WithWorkers(2), WithNorm(norm))
				got, err := eng.Measures(context.Background(), offers)
				eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !measureTablesEqual(want, got) {
					t.Errorf("%s norm=%v shards=%d: Engine.Measures diverged from the serial oracle", name, norm, shards)
				}
			}
		}
	}
}

// TestEngineSerialCollectAll pins that WithErrorMode(CollectAll) is
// honored even on a fully serial engine: every failing group must be
// reported, not just the first, matching the parallel path.
func TestEngineSerialCollectAll(t *testing.T) {
	// Two singleton groups (disjoint start windows) corrupted after
	// construction so each fails aggregation.
	bad1, err := NewFlexOffer(0, 0, Slice{Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad2, err := NewFlexOffer(5, 5, Slice{Min: 1, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad1.TotalMin, bad1.TotalMax = 10, 0
	bad2.TotalMin, bad2.TotalMax = 10, 0
	offers := []*FlexOffer{bad1, bad2}

	for _, workers := range []int{1, 2} {
		eng := New(WithWorkers(workers), WithErrorMode(CollectAll))
		_, err := eng.Aggregate(context.Background(), offers)
		eng.Close()
		if err == nil {
			t.Fatalf("workers=%d: corrupted offers aggregated successfully", workers)
		}
		var ges GroupErrors
		if !errors.As(err, &ges) {
			t.Fatalf("workers=%d: error is %T, want GroupErrors: %v", workers, err, err)
		}
		if len(ges) != 2 {
			t.Fatalf("workers=%d: collected %d failures, want 2: %v", workers, len(ges), err)
		}
	}
}

// TestEngineCancelledContext checks that every method refuses a
// cancelled context up front.
func TestEngineCancelledContext(t *testing.T) {
	offers, target := engineTestFleet(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(WithWorkers(2), WithGrouping(engineTestGroup))
	defer eng.Close()
	if _, err := eng.Aggregate(ctx, offers); err == nil {
		t.Error("Aggregate accepted a cancelled context")
	}
	if _, err := eng.Schedule(ctx, offers, target); err == nil {
		t.Error("Schedule accepted a cancelled context")
	}
	if _, err := eng.Pipeline(ctx, offers, target); err == nil {
		t.Error("Pipeline accepted a cancelled context")
	}
	if _, err := eng.Measures(ctx, offers); err == nil {
		t.Error("Measures accepted a cancelled context")
	}
}

// TestEngineCloseDegradesGracefully: calls after Close must still
// produce correct results (on the calling goroutine).
func TestEngineCloseDegradesGracefully(t *testing.T) {
	offers, _ := engineTestFleet(t, 100)
	want := serialAggregates(t, offers, engineTestGroup, false)
	eng := New(WithWorkers(4), WithGrouping(engineTestGroup))
	eng.Close()
	eng.Close() // idempotent
	got, err := eng.Aggregate(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("Aggregate after Close diverged from the serial oracle")
	}
}

func TestEngineWorkers(t *testing.T) {
	serial := New(WithWorkers(1))
	defer serial.Close()
	if serial.Workers() != 1 {
		t.Errorf("serial engine Workers() = %d, want 1", serial.Workers())
	}
	pooled := New(WithWorkers(5))
	defer pooled.Close()
	if pooled.Workers() != 5 {
		t.Errorf("pooled engine Workers() = %d, want 5", pooled.Workers())
	}
	sharded := NewSharded(3, WithWorkers(2))
	defer sharded.Close()
	if sharded.Shards() != 3 || sharded.Workers() != 2 {
		t.Errorf("NewSharded(3, WithWorkers(2)): Shards() = %d, Workers() = %d, want 3, 2", sharded.Shards(), sharded.Workers())
	}
	if serial.Shards() != 1 || pooled.Shards() != 1 {
		t.Error("New must build a one-shard engine")
	}
}

// TestEnginePerCallOverrides pins the satellite contract that options
// passed to a method override the engine's option set for that one
// call only: a tolerance sweep over one shared engine produces exactly
// what a dedicated engine per tolerance produces, and the shared
// engine's own options are untouched afterwards.
func TestEnginePerCallOverrides(t *testing.T) {
	offers, target := engineTestFleet(t, 200)
	shared := New(WithWorkers(3), WithGrouping(engineTestGroup), WithSafe(true))
	defer shared.Close()

	for _, tol := range []int{0, 2, 5, 9} {
		gp := GroupParams{ESTTolerance: tol, TFTolerance: -1, MaxGroupSize: 24}
		dedicated := New(WithWorkers(3), WithGrouping(gp), WithSafe(true))
		want, err := dedicated.Aggregate(context.Background(), offers)
		dedicated.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := shared.Aggregate(context.Background(), offers, WithGrouping(gp))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tol=%d: per-call WithGrouping diverged from dedicated engine", tol)
		}
	}

	// The override must not stick: the next plain call uses the
	// engine's own grouping again.
	want := serialAggregates(t, offers, engineTestGroup, true)
	got, err := shared.Aggregate(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("per-call override leaked into the engine's option set")
	}

	// Per-call WithPeakCap governs Schedule and Pipeline alike.
	capped := New(WithWorkers(1), WithGrouping(engineTestGroup), WithSafe(true), WithPeakCap(40))
	wantSched, err := capped.Schedule(context.Background(), offers, target)
	capped.Close()
	if err != nil {
		t.Fatal(err)
	}
	gotSched, err := shared.Schedule(context.Background(), offers, target, WithPeakCap(40))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSched, gotSched) {
		t.Fatal("per-call WithPeakCap diverged from dedicated engine on Schedule")
	}

	// Per-call WithNorm on Measures.
	wantTab := expectedMeasureTable(t, measureSet(L2), offers)
	gotTab, err := shared.Measures(context.Background(), offers, WithNorm(L2))
	if err != nil {
		t.Fatal(err)
	}
	if !measureTablesEqual(wantTab, gotTab) {
		t.Fatal("per-call WithNorm diverged from the L2 baseline")
	}
}

// TestEngineAggregateGroups pins the pre-computed-groups entry point:
// balance-aware groups aggregate to exactly what the parallel free
// function produces, for serial and pooled engines, safe and not.
func TestEngineAggregateGroups(t *testing.T) {
	offers, _ := engineTestFleet(t, 200)
	groups := BalanceGroups(offers, BalanceParams{ESTTolerance: 24, MaxGroupSize: 12})
	wantAgs := make([]*Aggregated, 0, len(groups))
	for _, g := range groups {
		ag, err := Aggregate(g)
		if err != nil {
			t.Fatal(err)
		}
		wantAgs = append(wantAgs, ag)
	}
	for _, workers := range []int{1, 2, 4} {
		eng := New(WithWorkers(workers))
		got, err := eng.AggregateGroups(context.Background(), groups)
		if err != nil {
			eng.Close()
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantAgs, got) {
			eng.Close()
			t.Fatalf("workers=%d: AggregateGroups diverged from per-group Aggregate", workers)
		}
		// Safe per-call override matches AggregateSafe per group.
		gotSafe, err := eng.AggregateGroups(context.Background(), groups, WithSafe(true))
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range groups {
			ag, err := AggregateSafe(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ag, gotSafe[i]) {
				t.Fatalf("workers=%d group=%d: safe AggregateGroups diverged", workers, i)
			}
		}
	}
}

// TestEnginePoolStats sanity-checks the serving-layer gauges.
func TestEnginePoolStats(t *testing.T) {
	serial := New(WithWorkers(1))
	defer serial.Close()
	if w, b := serial.PoolStats(); w != 1 || b != 0 {
		t.Errorf("serial PoolStats() = (%d,%d), want (1,0)", w, b)
	}
	if serial.Executor() != nil {
		t.Error("serial engine must expose a nil Executor")
	}
	pooled := New(WithWorkers(3))
	defer pooled.Close()
	if w, _ := pooled.PoolStats(); w != 3 {
		t.Errorf("pooled PoolStats() workers = %d, want 3", w)
	}
	if pooled.Executor() == nil {
		t.Error("pooled engine must expose its pool as an Executor")
	}
	sharded := NewSharded(2, WithWorkers(3))
	defer sharded.Close()
	if w, _ := sharded.PoolStats(); w != 6 {
		t.Errorf("2-shard PoolStats() workers = %d, want 6 (summed across shards)", w)
	}
	if w, b := sharded.ShardPoolStats(1); w != 3 || b != 0 {
		t.Errorf("ShardPoolStats(1) = (%d,%d), want (3,0)", w, b)
	}
}
