package flex

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/timeseries"
)

// pipelineGroup is the grouping the pipeline tests schedule under.
var pipelineGroup = GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24}

func pipelineFixture(t *testing.T, n int) ([]*FlexOffer, Series) {
	t.Helper()
	r := rand.New(rand.NewSource(2026))
	offers, err := Population(r, n, 2, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	horizon := 3 * SlotsPerDay
	target := WindProfile(r, horizon, expected/int64(horizon))
	return offers, target
}

// pipelineEngine returns an engine for the pipeline tests. Safe
// aggregation guarantees the disaggregation stage succeeds for whatever
// assignment the scheduler picks.
func pipelineEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng := New(append([]Option{WithGrouping(pipelineGroup), WithSafe(true)}, opts...)...)
	t.Cleanup(eng.Close)
	return eng
}

// TestSchedulePipelineMatchesBatch pins the pipeline's defining
// property: the streaming group→aggregate→schedule→disaggregate chain
// produces exactly the schedule of the materialized batch sequence, for
// several worker counts.
func TestSchedulePipelineMatchesBatch(t *testing.T) {
	offers, target := pipelineFixture(t, 400)

	// Materialized reference path.
	ags, err := pipelineEngine(t, WithWorkers(1)).Aggregate(context.Background(), offers)
	if err != nil {
		t.Fatal(err)
	}
	aggOffers := make([]*FlexOffer, len(ags))
	for i, ag := range ags {
		aggOffers[i] = ag.Offer
	}
	batch, err := pipelineEngine(t, WithWorkers(1)).Schedule(context.Background(), aggOffers, target)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		res, err := pipelineEngine(t, WithWorkers(workers)).Pipeline(context.Background(), offers, target)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.AggregateSchedule.Assignments, batch.Assignments) {
			t.Fatalf("workers=%d: pipeline schedule diverges from batch", workers)
		}
		if !res.Load.Equal(batch.Load) {
			t.Fatalf("workers=%d: pipeline load diverges from batch", workers)
		}
		if len(res.Aggregates) != len(ags) || len(res.Disaggregated) != len(ags) {
			t.Fatalf("workers=%d: %d aggregates, %d disaggregations, want %d",
				workers, len(res.Aggregates), len(res.Disaggregated), len(ags))
		}
	}
}

// TestSchedulePipelineDisaggregationValid checks the last stage: every
// constituent assignment is valid and the slot-wise sums reproduce the
// aggregate schedule (the grid-level profile survives disaggregation).
func TestSchedulePipelineDisaggregationValid(t *testing.T) {
	offers, target := pipelineFixture(t, 250)
	res, err := pipelineEngine(t, WithWorkers(4)).Pipeline(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	prosumers := 0
	for i, ag := range res.Aggregates {
		var sum Series
		for j, p := range res.Disaggregated[i] {
			if err := ag.Constituents[j].ValidateAssignment(p); err != nil {
				t.Fatalf("aggregate %d constituent %d: %v", i, j, err)
			}
			sum = timeseries.Add(sum, p.Series())
			prosumers++
		}
		if !sum.EquivalentZeroPadded(res.AggregateSchedule.Assignments[i].Series()) {
			t.Fatalf("aggregate %d: disaggregation changed the profile", i)
		}
	}
	if prosumers != len(offers) {
		t.Fatalf("disaggregated %d prosumers of %d", prosumers, len(offers))
	}
}

// TestSchedulePipelinePeakCap: the cap reaches the streaming scheduler.
func TestSchedulePipelinePeakCap(t *testing.T) {
	offers, target := pipelineFixture(t, 150)
	eng := pipelineEngine(t, WithWorkers(2))
	uncapped, err := eng.Pipeline(context.Background(), offers, target)
	if err != nil {
		t.Fatal(err)
	}
	base := uncapped.AggregateSchedule.PeakLoad()
	capped, err := eng.Pipeline(context.Background(), offers, target, WithPeakCap(base*3/4))
	if err != nil {
		t.Fatal(err)
	}
	if capped.AggregateSchedule.PeakLoad() > base {
		t.Errorf("capped peak %d exceeds uncapped %d", capped.AggregateSchedule.PeakLoad(), base)
	}
}

func TestSchedulePipelineNoOffers(t *testing.T) {
	_, target := pipelineFixture(t, 10)
	if _, err := pipelineEngine(t).Pipeline(context.Background(), nil, target); err == nil {
		t.Fatal("empty pipeline must error")
	}
}

func TestSchedulePipelineCancelled(t *testing.T) {
	offers, target := pipelineFixture(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pipelineEngine(t).Pipeline(ctx, offers, target); err == nil {
		t.Fatal("cancelled pipeline must error")
	}
}
