package flex

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// TestShardedEngineHammer drives one multi-shard Engine from 12 goroutines
// mixing ingest-style store mutation with schedule/aggregate/measure
// calls — the -race exercise for the scatter-gather machinery and the
// copy-on-write shard store it serves. Correctness of results is
// pinned elsewhere (TestShardedEngineMatchesEngine); this test is
// about the absence of data races and deadlocks under churn, plus the
// invariant that every call sees a consistent snapshot (never a torn
// one: result sizes must match the snapshot the call took).
func TestShardedEngineHammer(t *testing.T) {
	se := NewSharded(4, WithWorkers(2), WithSafe(true),
		WithGrouping(GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24}))
	defer se.Close()
	stores := shard.NewStores(shard.Router{Shards: se.Shards()})
	target := timeseries.Constant(0, 48, 20)

	const goroutines = 12
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for it := 0; it < iters; it++ {
				switch it % 3 {
				case 0: // ingest: half fresh offers, half re-submissions
					batch := make([]*FlexOffer, 0, 8)
					for i := 0; i < 8; i++ {
						est := rng.Intn(40)
						f := &FlexOffer{
							ID:            fmt.Sprintf("g%d-p%d", g, rng.Intn(40)),
							Zone:          fmt.Sprintf("z%d", rng.Intn(5)),
							EarliestStart: est,
							LatestStart:   est + rng.Intn(6),
							Slices: []Slice{
								{Min: 0, Max: int64(1 + rng.Intn(5))},
								{Min: 1, Max: int64(2 + rng.Intn(5))},
							},
						}
						f.TotalMin, f.TotalMax = f.SumMin(), f.SumMax()
						batch = append(batch, f)
					}
					stores.Add(batch)
				case 1: // scatter-gather schedule over the current snapshot
					parts := stores.Snapshot()
					n := 0
					for _, p := range parts {
						n += len(p)
					}
					if n == 0 {
						continue
					}
					res, err := se.PipelineRouted(context.Background(), parts, target)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d iter %d: pipeline: %w", g, it, err)
						return
					}
					got := 0
					for _, ps := range res.Disaggregated {
						got += len(ps)
					}
					if got != n {
						errs <- fmt.Errorf("goroutine %d iter %d: %d assignments for %d stored offers", g, it, got, n)
						return
					}
				case 2: // aggregate + measures over the current snapshot
					parts := stores.Snapshot()
					n := 0
					for _, p := range parts {
						n += len(p)
					}
					if n == 0 {
						continue
					}
					ags, err := se.AggregateRouted(context.Background(), parts)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d iter %d: aggregate: %w", g, it, err)
						return
					}
					total := 0
					for _, ag := range ags {
						total += len(ag.Constituents)
					}
					if total != n {
						errs <- fmt.Errorf("goroutine %d iter %d: %d constituents for %d stored offers", g, it, total, n)
						return
					}
					tab, err := se.MeasuresRouted(context.Background(), parts)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d iter %d: measures: %w", g, it, err)
						return
					}
					if len(tab.Values) != n {
						errs <- fmt.Errorf("goroutine %d iter %d: %d measure rows for %d offers", g, it, len(tab.Values), n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
