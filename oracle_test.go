package flex

import (
	"testing"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/sched"
)

// serialAggregates is the stateless serial oracle of the engine's
// aggregation stage: grouping.Group, then one aggregation per group
// (AggregateSafe when safe) in group order.
func serialAggregates(t testing.TB, offers []*FlexOffer, gp GroupParams, safe bool) []*Aggregated {
	t.Helper()
	agg := aggregate.Aggregate
	if safe {
		agg = aggregate.AggregateSafe
	}
	groups := grouping.Group(offers, gp)
	out := make([]*Aggregated, len(groups))
	for i, g := range groups {
		ag, err := agg(g)
		if err != nil {
			t.Fatalf("oracle: group %d: %v", i, err)
		}
		out[i] = ag
	}
	return out
}

// serialDisaggregate is the serial oracle of the disaggregation stage:
// Aggregated.Disaggregate per aggregate, in aggregate order.
func serialDisaggregate(t testing.TB, ags []*Aggregated, assignments []Assignment) [][]Assignment {
	t.Helper()
	out := make([][]Assignment, len(ags))
	for i, ag := range ags {
		parts, err := ag.Disaggregate(assignments[i])
		if err != nil {
			t.Fatalf("oracle: aggregate %d: %v", i, err)
		}
		out[i] = parts
	}
	return out
}

// serialPipeline is the stateless serial oracle of Engine.Pipeline:
// serialAggregates, sched.Schedule of the aggregate offers in arrival
// order under the peak cap, then serialDisaggregate.
func serialPipeline(t testing.TB, offers []*FlexOffer, target Series, gp GroupParams, safe bool, peakCap int64) *PipelineResult {
	t.Helper()
	ags := serialAggregates(t, offers, gp, safe)
	aggOffers := make([]*FlexOffer, len(ags))
	for i, ag := range ags {
		aggOffers[i] = ag.Offer
	}
	sr, err := sched.Schedule(aggOffers, target, sched.Options{PeakCap: peakCap})
	if err != nil {
		t.Fatalf("oracle: schedule: %v", err)
	}
	return &PipelineResult{
		Aggregates:        ags,
		AggregateSchedule: sr,
		Disaggregated:     serialDisaggregate(t, ags, sr.Assignments),
		Load:              sr.Load,
	}
}
