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

// orderStep applies one random mutation batch to the store: in-place
// appends of fresh offers, same-zone re-submissions (same-shard
// replaces), zone-changing re-submissions (cross-shard moves),
// deletions, a mix of all four, or a reset.
func orderStep(t *testing.T, rng *rand.Rand, stores *shard.Stores, next *int) {
	t.Helper()
	var live []*FlexOffer
	for _, part := range stores.Snapshot() {
		for _, en := range part {
			if en.Offer.ID != "" {
				live = append(live, en.Offer)
			}
		}
	}
	fresh := func(n int) []*FlexOffer { return orderFresh(t, rng, n, next) }
	resubmit := func(n int, move bool) []*FlexOffer {
		if len(live) == 0 {
			return nil
		}
		offers := fresh(n)
		for _, f := range offers {
			old := live[rng.Intn(len(live))]
			f.ID = old.ID
			if f.Zone = old.Zone; move {
				f.Zone = fmt.Sprintf("z%d", rng.Intn(5))
			}
		}
		return offers
	}
	deletes := func(n int) []string {
		var ids []string
		for i := 0; i < n && len(live) > 0; i++ {
			ids = append(ids, live[rng.Intn(len(live))].ID)
		}
		return ids
	}
	switch rng.Intn(7) {
	case 0:
		stores.Add(fresh(1 + rng.Intn(4)))
	case 1:
		stores.Add(resubmit(1+rng.Intn(4), false))
	case 2:
		stores.Add(resubmit(1+rng.Intn(4), true))
	case 3:
		stores.Delete(deletes(1 + rng.Intn(3)))
	case 4:
		if rng.Intn(3) == 0 {
			stores.Reset()
		}
	default:
		batch := append(fresh(rng.Intn(3)), resubmit(rng.Intn(3), false)...)
		stores.Add(append(batch, resubmit(rng.Intn(3), true)...))
		stores.Delete(deletes(rng.Intn(2)))
	}
}

// orderFresh returns n new offers in five zones, three in four of them
// with a fresh ID.
func orderFresh(t *testing.T, rng *rand.Rand, n int, next *int) []*FlexOffer {
	t.Helper()
	offers, err := workload.Population(rng, n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range offers {
		*next++
		if *next%4 != 0 {
			f.ID = fmt.Sprintf("o-%05d", *next)
		}
		f.Zone = fmt.Sprintf("z%d", rng.Intn(5))
	}
	return offers
}

// orderDelta counts the entries of two snapshots that are not in both
// with the same sequence number and offer: what the cached order must
// have re-sorted.
func orderDelta(old, cur [][]RoutedOffer) int {
	seen := make(map[RoutedOffer]bool)
	for _, part := range old {
		for _, en := range part {
			seen[en] = true
		}
	}
	delta := 0
	for _, part := range cur {
		for _, en := range part {
			if seen[en] {
				delete(seen, en)
			} else {
				delta++
			}
		}
	}
	return delta + len(seen)
}

// TestIncrementalOrderMatchesFullSort drives a store through random
// mutation sequences and, after every step, requires the grouping
// order an incremental engine caches to equal the stateless sort of
// the same snapshot, and its reported delta to count exactly the
// entries that changed — at 1, 2 and 4 shards with 1 and 3 workers.
func TestIncrementalOrderMatchesFullSort(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*shards + workers)))
				e := NewSharded(shards, WithWorkers(workers), WithIncremental(true))
				defer e.Close()
				o := e.resolve(nil)
				stores := shard.NewStores(shard.Router{Shards: shards})
				next := 0
				var prev [][]RoutedOffer
				for step := 0; step < 120; step++ {
					if step%40 == 0 {
						// Start over from a populated store now and then,
						// so the walk sees large parts as well as small.
						stores.Reset()
						stores.Add(orderFresh(t, rng, 300, &next))
					}
					orderStep(t, rng, stores, &next)
					snap := stores.Snapshot()
					got := e.scatterSort(ctx, snap, o, true)
					want := e.scatterSort(ctx, snap, o, false)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: cached order differs from the full sort (%d vs %d entries)", step, got.Len(), want.Len())
					}
					if cached := e.order.load().merged; !reflect.DeepEqual(cached, want) {
						t.Fatalf("step %d: published order differs from the full sort", step)
					}
					if d, wantD := e.OrderDelta(), orderDelta(prev, snap); d != wantD {
						t.Fatalf("step %d: order delta %d, want %d", step, d, wantD)
					}
					prev = snap
				}
			})
		}
	}
}

// TestIncrementalOrderHammer runs concurrent incremental pipelines on
// two alternating snapshots of one store — so each call's cached base
// is whichever snapshot another call published last — and checks every
// result against the stateless pipeline on the same snapshot. Run it
// under the race detector.
func TestIncrementalOrderHammer(t *testing.T) {
	gp := GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 12}
	se := NewSharded(2, WithWorkers(2), WithSafe(true), WithIncremental(true), WithGrouping(gp))
	defer se.Close()
	oracle := NewSharded(2, WithWorkers(2), WithSafe(true), WithGrouping(gp))
	defer oracle.Close()
	stores := shard.NewStores(shard.Router{Shards: 2})
	stores.Add(shardedFleet(t, 5, 200, 3))
	a := stores.Snapshot()
	rng := rand.New(rand.NewSource(7))
	next := 0
	churnStore(t, rng, stores, &next, 6, 4, 3)
	b := stores.Snapshot()
	target := timeseries.Constant(0, 48, 30)
	snaps := [][][]RoutedOffer{a, b}
	wants := make([]*PipelineResult, len(snaps))
	for i, snap := range snaps {
		want, err := oracle.PipelineRouted(context.Background(), snap, target)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := (g + i) % 2
				got, err := se.PipelineRouted(context.Background(), snaps[k], target)
				if err != nil {
					t.Errorf("incremental: %v", err)
					return
				}
				if !reflect.DeepEqual(got, wants[k]) {
					t.Errorf("goroutine %d call %d: snapshot %d differs from the stateless pipeline", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
