package flex

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// shardedFleet samples a workload population and stamps deterministic
// IDs and (for zones > 0) a skewed zone distribution onto it, so the
// router exercises all three key paths: zone, ID hash, round-robin.
func shardedFleet(t *testing.T, seed int64, n, zones int) []*FlexOffer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	offers, err := workload.Population(rng, n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range offers {
		switch i % 5 {
		case 0: // anonymous: routed round-robin
		default:
			f.ID = fmt.Sprintf("p-%05d", i)
		}
		if zones > 0 && i%3 != 0 {
			f.Zone = fmt.Sprintf("z%02d", rng.Intn(zones))
		}
	}
	return offers
}

// TestShardedEngineMatchesEngine is the engine's bit-identity property
// test: for every shard count × worker count × input permutation, the
// scatter-gather pipeline (and aggregation and measures) over the
// partitioned population equals the stateless serial chain on the same
// input — grouping.Group, AggregateSafe per group, sched.Schedule in
// arrival order under the same peak cap, Disaggregate per aggregate,
// and the per-offer measure loop — DeepEqual-exact.
func TestShardedEngineMatchesEngine(t *testing.T) {
	base := shardedFleet(t, 41, 400, 5)
	horizon := 96
	target := timeseries.Constant(0, horizon, 40)
	groupings := []GroupParams{
		{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 32},
		{ESTTolerance: 0, TFTolerance: 0},
	}
	const peakCap = 55
	permRng := rand.New(rand.NewSource(42))
	for gi, gp := range groupings {
		for perm := 0; perm < 3; perm++ {
			offers := append([]*FlexOffer(nil), base...)
			if perm > 0 {
				permRng.Shuffle(len(offers), func(i, j int) {
					offers[i], offers[j] = offers[j], offers[i]
				})
			}
			want := serialPipeline(t, offers, target, gp, true, peakCap)
			wantTab := expectedMeasureTable(t, measureSet(L1), offers)
			for _, workers := range []int{1, 2, 3} {
				for _, shards := range []int{1, 2, 4, 8} {
					eng := NewSharded(shards, WithWorkers(workers), WithSafe(true), WithGrouping(gp), WithPeakCap(peakCap))
					got, err := eng.Pipeline(context.Background(), offers, target)
					if err != nil {
						t.Fatalf("shards=%d workers=%d gp=%d perm=%d: %v", shards, workers, gi, perm, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("shards=%d workers=%d gp=%d perm=%d: pipeline result differs from the serial oracle", shards, workers, gi, perm)
					}
					gotAgs, err := eng.Aggregate(context.Background(), offers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotAgs, want.Aggregates) {
						t.Errorf("shards=%d workers=%d gp=%d perm=%d: aggregates differ from the serial oracle", shards, workers, gi, perm)
					}
					gotTab, err := eng.Measures(context.Background(), offers)
					if err != nil {
						t.Fatal(err)
					}
					if !measureTablesEqual(gotTab, wantTab) {
						t.Errorf("shards=%d workers=%d gp=%d perm=%d: measures differ from the serial oracle", shards, workers, gi, perm)
					}
					eng.Close()
				}
			}
		}
	}
}

// TestShardedEngineRoutedStability checks that pre-routed calls (the
// path flexd takes through its shard store) agree with the partition
// convenience path and with a one-shard engine.
func TestShardedEngineRoutedStability(t *testing.T) {
	offers := shardedFleet(t, 43, 250, 3)
	target := timeseries.Constant(0, 48, 25)
	opts := []Option{WithWorkers(2), WithSafe(true), WithGrouping(GroupParams{ESTTolerance: 2, TFTolerance: -1})}
	eng := New(opts...)
	defer eng.Close()
	want, err := eng.Pipeline(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(4, opts...)
	defer se.Close()
	parts := se.Partition(offers)
	got, err := se.PipelineRouted(context.Background(), parts, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("PipelineRouted differs from a one-shard engine")
	}
	sr, err := se.ScheduleRouted(context.Background(), parts, target)
	if err != nil {
		t.Fatal(err)
	}
	wantSR, err := eng.Schedule(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr, wantSR) {
		t.Fatal("ScheduleRouted differs from a one-shard engine Schedule")
	}
}

// TestShardedEngineCustomKey checks bit-identity is preserved under a
// custom (pathological) routing key: routing never changes results,
// only locality.
func TestShardedEngineCustomKey(t *testing.T) {
	offers := shardedFleet(t, 44, 200, 0)
	target := timeseries.Constant(0, 48, 30)
	opts := []Option{WithWorkers(2), WithSafe(true), WithGrouping(GroupParams{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 16})}
	eng := New(opts...)
	defer eng.Close()
	want, err := eng.Pipeline(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(3, opts...)
	defer se.Close()
	// Key by earliest start parity: adversarially correlated with the
	// grouping key itself.
	se.SetRouterKey(func(f *FlexOffer) string { return fmt.Sprintf("parity-%d", f.EarliestStart%2) })
	got, err := se.Pipeline(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("custom routing key changed pipeline output")
	}
}

// TestShardedEngineEmptyAndErrors pins the edge and error paths to the
// one-shard behaviour.
func TestShardedEngineEmptyAndErrors(t *testing.T) {
	target := timeseries.Constant(0, 24, 10)
	se := NewSharded(4, WithWorkers(2))
	defer se.Close()
	eng := New(WithWorkers(2))
	defer eng.Close()

	_, gotErr := se.Pipeline(context.Background(), nil, target)
	_, wantErr := eng.Pipeline(context.Background(), nil, target)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("empty pipeline: sharded err %v, single err %v", gotErr, wantErr)
	}

	offers := shardedFleet(t, 45, 50, 2)
	if _, err := se.Pipeline(context.Background(), offers, target, WithPlacement(OrderLeastFlexibleFirst)); err == nil {
		t.Fatal("non-arrival placement should fail like a one-shard engine")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.Pipeline(ctx, offers, target); err == nil {
		t.Fatal("cancelled ctx should fail")
	}
	if _, err := se.Aggregate(ctx, offers); err == nil {
		t.Fatal("cancelled ctx should fail aggregation")
	}
}

// TestPipelineErrorParity: a Pipeline over two corrupted groups fails
// identically on the stateless and the incremental engine, for one and
// two shards. Under CollectAll both report every failed group as
// GroupErrors; under FirstError both report the lowest-indexed group's
// *GroupError. FirstError runs on serial engines only: a pooled shard
// may reach the second failure first and skip the first.
func TestPipelineErrorParity(t *testing.T) {
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
	target := timeseries.Constant(0, 24, 10)

	for _, shards := range []int{1, 2} {
		for _, workers := range []int{1, 2} {
			for _, mode := range []ErrorMode{FirstError, CollectAll} {
				if mode == FirstError && workers > 1 {
					continue
				}
				name := fmt.Sprintf("shards=%d/workers=%d/%v", shards, workers, mode)
				var errs [2]error
				for i, incremental := range []bool{false, true} {
					eng := NewSharded(shards, WithWorkers(workers), WithErrorMode(mode), WithIncremental(incremental))
					_, errs[i] = eng.Pipeline(context.Background(), offers, target)
					eng.Close()
				}
				if !reflect.DeepEqual(errs[0], errs[1]) {
					t.Fatalf("%s: stateless error %v, incremental error %v", name, errs[0], errs[1])
				}
				switch mode {
				case CollectAll:
					ges, ok := errs[0].(GroupErrors)
					if !ok || len(ges) != 2 || ges[0].Group != 0 || ges[1].Group != 1 {
						t.Fatalf("%s: error %T %v, want GroupErrors for groups 0 and 1", name, errs[0], errs[0])
					}
				case FirstError:
					var ge *GroupError
					if !errors.As(errs[0], &ge) || ge.Group != 0 {
						t.Fatalf("%s: error %T %v, want *GroupError for group 0", name, errs[0], errs[0])
					}
					if _, many := errs[0].(GroupErrors); many {
						t.Fatalf("%s: FirstError reported GroupErrors: %v", name, errs[0])
					}
				}
			}
		}
	}
}
