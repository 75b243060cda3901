package flex

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"flexmeasures/internal/sched"
)

// TestEngineConcurrentHammer is the Engine's goroutine-safety contract
// under -race: one engine is hammered from many goroutines with a mix
// of Aggregate, Pipeline, Measures, Schedule and Disaggregate calls,
// and every result must be identical to the serial oracle — concurrent
// calls share the pool but must never share or corrupt per-call state.
func TestEngineConcurrentHammer(t *testing.T) {
	offers, target := engineTestFleet(t, 150)
	ctx := context.Background()

	// Serial baselines from the stateless oracle.
	wantAgs := serialAggregates(t, offers, engineTestGroup, true)
	wantPipe := serialPipeline(t, offers, target, engineTestGroup, true, 45)
	wantSched, err := sched.Schedule(offers, target, sched.Options{PeakCap: 45})
	if err != nil {
		t.Fatal(err)
	}
	wantParts := wantPipe.Disaggregated

	eng := New(WithWorkers(4), WithGrouping(engineTestGroup), WithSafe(true), WithPeakCap(45))
	defer eng.Close()
	wantMeasures := expectedMeasureTable(t, measureSet(eng.opts.norm), offers)

	const (
		goroutines = 12
		rounds     = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (g + r) % 5 {
				case 0:
					got, err := eng.Aggregate(ctx, offers)
					if err != nil {
						t.Errorf("Aggregate: %v", err)
						return
					}
					if !reflect.DeepEqual(wantAgs, got) {
						t.Error("concurrent Aggregate diverged from serial baseline")
						return
					}
				case 1:
					got, err := eng.Pipeline(ctx, offers, target)
					if err != nil {
						t.Errorf("Pipeline: %v", err)
						return
					}
					if !reflect.DeepEqual(wantPipe, got) {
						t.Error("concurrent Pipeline diverged from serial baseline")
						return
					}
				case 2:
					got, err := eng.Measures(ctx, offers)
					if err != nil {
						t.Errorf("Measures: %v", err)
						return
					}
					if !measureTablesEqual(wantMeasures, got) {
						t.Error("concurrent Measures diverged from serial baseline")
						return
					}
				case 3:
					got, err := eng.Schedule(ctx, offers, target)
					if err != nil {
						t.Errorf("Schedule: %v", err)
						return
					}
					if !reflect.DeepEqual(wantSched, got) {
						t.Error("concurrent Schedule diverged from serial baseline")
						return
					}
				case 4:
					got, err := eng.Disaggregate(ctx, wantPipe.Aggregates, wantPipe.AggregateSchedule.Assignments)
					if err != nil {
						t.Errorf("Disaggregate: %v", err)
						return
					}
					if !reflect.DeepEqual(wantParts, got) {
						t.Error("concurrent Disaggregate diverged from serial baseline")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
