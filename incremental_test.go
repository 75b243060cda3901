package flex

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// churnStore drives a shard store through a deterministic churn round:
// a few offers re-submitted under their existing IDs (replace), a few
// new arrivals, a few deletions — the steady-state traffic incremental
// scheduling exists for.
func churnStore(t *testing.T, rng *rand.Rand, stores *shard.Stores, next *int, replaces, adds, deletes int) {
	t.Helper()
	parts := stores.Snapshot()
	var ids []string
	for _, p := range parts {
		for _, e := range p {
			if e.Offer.ID != "" {
				ids = append(ids, e.Offer.ID)
			}
		}
	}
	var batch []*FlexOffer
	if replaces > 0 && len(ids) > 0 {
		repl, err := workload.Population(rng, replaces, 2, workload.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range repl {
			f.ID = ids[rng.Intn(len(ids))]
		}
		batch = append(batch, repl...)
	}
	if adds > 0 {
		added, err := workload.Population(rng, adds, 2, workload.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range added {
			*next++
			f.ID = fmt.Sprintf("churn-%05d", *next)
		}
		batch = append(batch, added...)
	}
	if len(batch) > 0 {
		stores.Add(batch)
	}
	if deletes > 0 && len(ids) > deletes {
		del := make([]string, 0, deletes)
		for len(del) < deletes {
			del = append(del, ids[rng.Intn(len(ids))])
		}
		stores.Delete(del)
	}
}

// TestIncrementalEquivalence is the tentpole's bit-identity property
// test: across churn sequences × shard counts × worker counts, a
// persistent WithIncremental engine — whose cache survives from round
// to round — produces PipelineResults DeepEqual to a stateless full
// recompute of the same snapshot. Target and cap changes, the
// dirty-fraction fallback, and the plain Engine surface are exercised
// too.
func TestIncrementalEquivalence(t *testing.T) {
	gp := GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 16}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", shards, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*shards + workers)))
				opts := []Option{WithWorkers(workers), WithSafe(true), WithGrouping(gp), WithPeakCap(55)}
				incSE := NewSharded(shards, append([]Option{WithIncremental(true)}, opts...)...)
				defer incSE.Close()
				oracle := NewSharded(shards, opts...)
				defer oracle.Close()
				incEng := New(append([]Option{WithIncremental(true)}, opts...)...)
				defer incEng.Close()

				stores := shard.NewStores(shard.Router{Shards: shards})
				base := shardedFleet(t, int64(shards), 300, 4)
				stores.Add(base)
				next := 0

				for round := 0; round < 8; round++ {
					switch round {
					case 0, 2, 6:
						// No churn: rounds 2 and 6 exercise the all-reused
						// replay fast path.
					case 4:
						// Heavy churn: trip the dirty-fraction fallback.
						churnStore(t, rng, stores, &next, 120, 60, 40)
					default:
						churnStore(t, rng, stores, &next, 3, 2, 1)
					}
					target := timeseries.Constant(0, 96, 40)
					callOpts := []Option{}
					if round == 3 {
						// Replay with dirty groups and the fallback disabled:
						// the retire/re-place walk must still be exact.
						callOpts = append(callOpts, WithIncrementalThreshold(1))
					}
					if round >= 5 {
						// Target change at round 5: placements invalidate,
						// aggregates stay cached; round 6 then replays
						// against the new target.
						target = timeseries.Constant(0, 96, 25)
					}
					if round == 7 {
						callOpts = append(callOpts, WithPeakCap(70), WithIncrementalThreshold(1))
					}
					parts := stores.Snapshot()
					want, err := oracle.PipelineRouted(context.Background(), parts, target, callOpts...)
					if err != nil {
						t.Fatalf("round %d: oracle: %v", round, err)
					}
					got, err := incSE.PipelineRouted(context.Background(), parts, target, callOpts...)
					if err != nil {
						t.Fatalf("round %d: incremental: %v", round, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: incremental sharded pipeline differs from full recompute", round)
					}
					gotEng, err := incEng.Pipeline(context.Background(), shard.Flatten(parts), target, callOpts...)
					if err != nil {
						t.Fatalf("round %d: incremental engine: %v", round, err)
					}
					if !reflect.DeepEqual(gotEng, want) {
						t.Fatalf("round %d: incremental one-shard Pipeline differs from full recompute", round)
					}
				}
				st := incSE.IncrementalStats()
				if st.Runs != 8 {
					t.Fatalf("runs = %d, want 8", st.Runs)
				}
				if st.Hits == 0 || st.Reused == 0 {
					t.Fatalf("cache never hit: %+v", st)
				}
			})
		}
	}
}

// TestIncrementalNoChurnReusesEverything pins the steady-state claim
// the metrics advertise: with zero mutations between calls, the second
// run recomputes no aggregates and re-places no groups.
func TestIncrementalNoChurnReusesEverything(t *testing.T) {
	se := NewSharded(2, WithWorkers(2), WithSafe(true), WithIncremental(true),
		WithGrouping(GroupParams{ESTTolerance: 2, TFTolerance: -1}))
	defer se.Close()
	stores := shard.NewStores(shard.Router{Shards: 2})
	stores.Add(shardedFleet(t, 7, 200, 3))
	target := timeseries.Constant(0, 48, 30)
	for i := 0; i < 2; i++ {
		if _, err := se.PipelineRouted(context.Background(), stores.Snapshot(), target); err != nil {
			t.Fatal(err)
		}
	}
	st := se.IncrementalStats()
	if st.LastDirty != 0 {
		t.Errorf("second identical run recomputed %d aggregates, want 0", st.LastDirty)
	}
	if st.LastReused != st.LastGroups || st.LastGroups == 0 {
		t.Errorf("second identical run reused %d/%d placements, want all", st.LastReused, st.LastGroups)
	}
}

// TestIncrementalStatsPartitionPlacements pins that the placement
// counters partition the placed groups: over a churn sequence with
// replays (the dirty-fraction fallback disabled, so clean groups with
// perturbed windows are re-placed), every group of every run is counted
// exactly once as Reused, Replaced or Placed.
func TestIncrementalStatsPartitionPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	se := NewSharded(2, WithWorkers(2), WithSafe(true), WithIncremental(true), WithIncrementalThreshold(1),
		WithGrouping(GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 8}))
	defer se.Close()
	stores := shard.NewStores(shard.Router{Shards: 2})
	stores.Add(shardedFleet(t, 5, 300, 4))
	target := timeseries.Constant(0, 96, 30)
	next, groups := 0, 0
	for round := 0; round < 6; round++ {
		if round > 0 {
			churnStore(t, rng, stores, &next, 2, 1, 1)
		}
		if _, err := se.PipelineRouted(context.Background(), stores.Snapshot(), target); err != nil {
			t.Fatal(err)
		}
		groups += se.IncrementalStats().LastGroups
	}
	st := se.IncrementalStats()
	if st.Reused == 0 || st.Replaced == 0 {
		t.Fatalf("sequence exercised no replay or no re-placement: %+v", st)
	}
	if got := st.Reused + st.Replaced + st.Placed; got != int64(groups) {
		t.Fatalf("Reused+Replaced+Placed = %d+%d+%d = %d, want %d groups placed", st.Reused, st.Replaced, st.Placed, got, groups)
	}
}

// clusteredFleet builds a fleet whose earliest starts sit in well-
// separated clusters, so EST-gap cuts partition the grouping into
// segments — the structure that bounds the blast radius of one offer
// change to its own segment's groups.
func clusteredFleet(t *testing.T, seed int64, n, clusters, spacing int) []*FlexOffer {
	t.Helper()
	offers := shardedFleet(t, seed, n, 4)
	for i, f := range offers {
		est := (i % clusters) * spacing
		delta := est - f.EarliestStart
		f.EarliestStart += delta
		f.LatestStart += delta
	}
	return offers
}

// TestIncrementalSmallDeltaDirtiesFewGroups pins the acceptance
// criterion directly at the engine layer: on a fleet with EST-gap
// structure, a ≤1% delta re-aggregates only the changed offers' own
// segments and replays placements for the untouched ones — O(changed
// groups), not O(fleet).
func TestIncrementalSmallDeltaDirtiesFewGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gp := GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 16}
	se := NewSharded(4, WithWorkers(2), WithSafe(true), WithIncremental(true), WithGrouping(gp))
	defer se.Close()
	oracle := NewSharded(4, WithWorkers(2), WithSafe(true), WithGrouping(gp))
	defer oracle.Close()
	stores := shard.NewStores(shard.Router{Shards: 4})
	stores.Add(clusteredFleet(t, 13, 500, 8, 12))
	target := timeseries.Constant(0, 120, 40)
	if _, err := se.PipelineRouted(context.Background(), stores.Snapshot(), target); err != nil {
		t.Fatal(err)
	}
	// Re-submit 3 offers (≤1% of 500) under existing IDs.
	repl, err := workload.Population(rng, 3, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range repl {
		// Same EST cluster as the offer being replaced (index 1+3i of the
		// clustered fleet), so each replace perturbs one segment only.
		est := ((1 + 3*i) % 8) * 12
		f.LatestStart += est - f.EarliestStart
		f.EarliestStart = est
		f.ID = fmt.Sprintf("p-%05d", 1+3*i)
	}
	stores.Add(repl)
	parts := stores.Snapshot()
	got, err := se.PipelineRouted(context.Background(), parts, target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.PipelineRouted(context.Background(), parts, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("incremental result differs from full recompute after small delta")
	}
	st := se.IncrementalStats()
	if st.LastGroups == 0 {
		t.Fatal("no groups formed")
	}
	if st.LastDirty > st.LastGroups/4 {
		t.Errorf("1%% delta dirtied %d of %d groups", st.LastDirty, st.LastGroups)
	}
	if st.LastReused == 0 {
		t.Errorf("1%% delta reused no placements (groups=%d dirty=%d)", st.LastGroups, st.LastDirty)
	}
}

// TestIncrementalHammer races concurrent schedules against store churn
// and cache invalidation — run under -race in CI. Every snapshot a
// scheduler takes is immutable, so each incremental result must still
// equal a stateless recompute of the same snapshot even while the
// store mutates underneath.
func TestIncrementalHammer(t *testing.T) {
	se := NewSharded(2, WithWorkers(2), WithSafe(true), WithIncremental(true),
		WithGrouping(GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 12}))
	defer se.Close()
	oracle := NewSharded(2, WithWorkers(2), WithSafe(true),
		WithGrouping(GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 12}))
	defer oracle.Close()
	stores := shard.NewStores(shard.Router{Shards: 2})
	stores.Add(shardedFleet(t, 3, 120, 3))
	target := timeseries.Constant(0, 48, 30)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		next := 0
		for i := 0; i < 25; i++ {
			churnStore(t, rng, stores, &next, 2, 2, 1)
			if i%10 == 9 {
				se.InvalidateIncremental()
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				parts := stores.Snapshot()
				got, err := se.PipelineRouted(context.Background(), parts, target)
				if err != nil {
					t.Errorf("incremental: %v", err)
					return
				}
				want, err := oracle.PipelineRouted(context.Background(), parts, target)
				if err != nil {
					t.Errorf("oracle: %v", err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("incremental result differs from full recompute under churn")
					return
				}
			}
		}()
	}
	wg.Wait()
}
