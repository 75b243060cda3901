package flex

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"flexmeasures/internal/sched"
)

// TestEngineShardedGrouperForced installs the ShardedGrouper on the
// engine's pool with the full segmenting machinery forced (MinOffers:
// -1 disables the small-input fallback) and requires the output to stay
// bit-identical to the serial oracle for every worker count.
func TestEngineShardedGrouperForced(t *testing.T) {
	offers, _ := engineTestFleet(t, 400)
	want := serialAggregates(t, offers, engineTestGroup, false)
	for _, workers := range []int{1, 2, 3, 8} {
		eng := New(WithWorkers(workers), WithGrouping(engineTestGroup))
		g := &ShardedGrouper{Params: engineTestGroup, Pool: eng.Executor(), Workers: workers, MinOffers: -1}
		got, err := eng.Aggregate(context.Background(), offers, WithGrouper(g))
		eng.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: forced-sharded Engine.Aggregate diverged from the serial oracle", workers)
		}
	}
}

// TestEngineWithGrouperBalance installs the balance-aware strategy as
// the engine's grouper and checks it against the explicit
// BalanceGroups → AggregateGroups route.
func TestEngineWithGrouperBalance(t *testing.T) {
	offers, _ := engineTestFleet(t, 150)
	bp := BalanceParams{ESTTolerance: 24, MaxGroupSize: 12}
	eng := New(WithWorkers(2), WithGrouper(BalanceGrouper{Params: bp}))
	defer eng.Close()
	want, err := eng.AggregateGroups(context.Background(), BalanceGroups(offers, bp))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Aggregate(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("WithGrouper(Balance) diverged from BalanceGroups → AggregateGroups")
	}
	// WithGrouping as a per-call override replaces the custom grouper.
	wantThreshold := serialAggregates(t, offers, engineTestGroup, false)
	gotThreshold, err := eng.Aggregate(context.Background(), offers, WithGrouping(engineTestGroup))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantThreshold, gotThreshold) {
		t.Fatal("per-call WithGrouping did not replace the engine's custom grouper")
	}
}

// TestEnginePipelineGrouperBranches checks that the pipeline's two
// entry branches — the built-in scatter-gather grouping and a custom
// grouper with the same partition — produce bit-identical results,
// both equal to the serial oracle.
func TestEnginePipelineGrouperBranches(t *testing.T) {
	offers, target := engineTestFleet(t, 300)
	want := serialPipeline(t, offers, target, engineTestGroup, true, 40)
	for _, workers := range []int{1, 3} {
		eng := New(WithWorkers(workers), WithGrouping(engineTestGroup), WithSafe(true), WithPeakCap(40))
		builtin, err := eng.Pipeline(context.Background(), offers, target)
		if err != nil {
			eng.Close()
			t.Fatalf("workers=%d built-in: %v", workers, err)
		}
		materialized, err := eng.Pipeline(context.Background(), offers, target,
			WithGrouper(ThresholdGrouper{Params: engineTestGroup}))
		eng.Close()
		if err != nil {
			t.Fatalf("workers=%d materialized: %v", workers, err)
		}
		if !reflect.DeepEqual(want, builtin) {
			t.Fatalf("workers=%d: built-in grouping Pipeline diverged from the serial oracle", workers)
		}
		if !reflect.DeepEqual(want, materialized) {
			t.Fatalf("workers=%d: custom-grouper Pipeline diverged from the serial oracle", workers)
		}
	}
}

// TestEnginePlacement pins WithPlacement/WithPlacementMeasure against
// the options-taking sched route they retire, and the documented
// arrival-order restriction on Pipeline.
func TestEnginePlacement(t *testing.T) {
	offers, target := engineTestFleet(t, 120)
	eng := New(WithWorkers(2), WithGrouping(engineTestGroup), WithSafe(true))
	defer eng.Close()
	for _, order := range []ScheduleOrder{OrderArrival, OrderLeastFlexibleFirst, OrderMostFlexibleFirst} {
		want, err := sched.Schedule(offers, target, sched.Options{Order: order, Measure: VectorMeasure{}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Schedule(context.Background(), offers, target,
			WithPlacement(order), WithPlacementMeasure(VectorMeasure{}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("order=%v: engine placement diverged from sched options", order)
		}
	}
	// The pipeline supports arrival order only.
	if _, err := eng.Pipeline(context.Background(), offers, target,
		WithPlacement(OrderLeastFlexibleFirst)); !errors.Is(err, sched.ErrStreamOrder) {
		t.Fatalf("Pipeline with ranked placement returned %v, want ErrStreamOrder", err)
	}
}

// TestEngineGroupingConcurrentHammer drives grouping through one engine
// from many goroutines under -race: per-call tolerance overrides,
// forced-sharded groupers on the shared pool, and the full pipeline,
// every result compared against its serial baseline.
func TestEngineGroupingConcurrentHammer(t *testing.T) {
	offers, target := engineTestFleet(t, 200)
	ctx := context.Background()

	tols := []GroupParams{
		{ESTTolerance: 0, TFTolerance: -1},
		{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24},
		{ESTTolerance: 6, TFTolerance: 2},
	}
	wantAgs := make([][]*Aggregated, len(tols))
	for i, gp := range tols {
		wantAgs[i] = serialAggregates(t, offers, gp, false)
	}
	wantPipe := serialPipeline(t, offers, target, engineTestGroup, true, 0)

	eng := New(WithWorkers(4), WithGrouping(engineTestGroup), WithSafe(true))
	defer eng.Close()

	const goroutines = 12
	const rounds = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(tols)
				switch (g + r) % 3 {
				case 0:
					// Per-call tolerance override through the built-in
					// scatter-gather grouping.
					got, err := eng.Aggregate(ctx, offers, WithGrouping(tols[i]), WithSafe(false))
					if err != nil {
						t.Errorf("Aggregate: %v", err)
						return
					}
					if !reflect.DeepEqual(wantAgs[i], got) {
						t.Errorf("concurrent grouped Aggregate diverged (tol set %d)", i)
						return
					}
				case 1:
					// Forced sharding on the shared pool.
					sg := &ShardedGrouper{Params: tols[i], Pool: eng.Executor(), MinOffers: -1}
					got, err := eng.Aggregate(ctx, offers, WithGrouper(sg), WithSafe(false))
					if err != nil {
						t.Errorf("sharded Aggregate: %v", err)
						return
					}
					if !reflect.DeepEqual(wantAgs[i], got) {
						t.Errorf("concurrent forced-sharded Aggregate diverged (tol set %d)", i)
						return
					}
				case 2:
					got, err := eng.Pipeline(ctx, offers, target)
					if err != nil {
						t.Errorf("Pipeline: %v", err)
						return
					}
					if !reflect.DeepEqual(wantPipe, got) {
						t.Error("concurrent grouper-entered Pipeline diverged")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineGrouperStreamCancelled checks that a cancelled pipeline
// surfaces the context error rather than a truncated result, through
// the built-in grouping and through a custom grouper alike.
func TestEngineGrouperStreamCancelled(t *testing.T) {
	offers, target := engineTestFleet(t, 200)
	eng := New(WithWorkers(2), WithGrouping(engineTestGroup), WithSafe(true))
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Pipeline(ctx, offers, target); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Pipeline returned %v, want context.Canceled", err)
	}
	sg := &ShardedGrouper{Params: engineTestGroup, Pool: eng.Executor(), MinOffers: -1}
	if _, err := eng.Pipeline(ctx, offers, target, WithGrouper(sg)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled custom-grouper Pipeline returned %v, want context.Canceled", err)
	}
}
