package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/workload"
)

// Seeds for the ablation experiments.
const (
	seedX5 = 1005
	seedX6 = 1006
)

// GroupingAblation is experiment X5: the DESIGN.md ablation of grouping
// strategies. Similarity grouping (reference [15]'s tolerances),
// balance-aware grouping (reference [14]) and this library's optimizing
// grouping (the paper's Section 6 future work) are compared on the same
// population by reduction (how many aggregates remain) and by retained
// flexibility under the vector and absolute-area measures.
func GroupingAblation() (*Result, error) {
	r := &Result{
		ID:    "X5",
		Title: "grouping strategy ablation: similarity vs. balance-aware vs. optimizing (600 offers, seed 1005)",
		Header: []string{"strategy", "params", "groups",
			"vector_l1 kept %", "abs_area kept %", "mixed aggregates"},
	}
	rng := rand.New(rand.NewSource(seedX5))
	offers, err := workload.Population(rng, 600, 2, workload.ConsumptionMix())
	if err != nil {
		return nil, err
	}
	vec := core.VectorMeasure{}
	area := core.AbsoluteAreaMeasure{}
	emit := func(strategy, params string, groups [][]*flexoffer.FlexOffer) error {
		ags := make([]*aggregate.Aggregated, 0, len(groups))
		mixed := 0
		for _, g := range groups {
			ag, err := aggregate.Aggregate(g)
			if err != nil {
				return err
			}
			ags = append(ags, ag)
			if ag.Offer.Kind() == flexoffer.Mixed {
				mixed++
			}
		}
		vKept, err := aggregate.RetainedFraction(ags, vec)
		if err != nil {
			return err
		}
		aKept, err := aggregate.RetainedFraction(ags, area)
		if err != nil {
			return err
		}
		r.Rows = append(r.Rows, []string{
			strategy, params, fmt.Sprintf("%d", len(groups)),
			fmt.Sprintf("%.1f", 100*vKept), fmt.Sprintf("%.1f", 100*aKept),
			fmt.Sprintf("%d", mixed),
		})
		return nil
	}

	if err := emit("similarity", "est=2",
		grouping.Group(offers, grouping.Params{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 32})); err != nil {
		return nil, err
	}
	if err := emit("similarity", "est=2 tft=2",
		grouping.Group(offers, grouping.Params{ESTTolerance: 2, TFTolerance: 2, MaxGroupSize: 32})); err != nil {
		return nil, err
	}
	if err := emit("balance", "est=4",
		grouping.BalanceGroups(offers, grouping.BalanceParams{ESTTolerance: 4, MaxGroupSize: 32})); err != nil {
		return nil, err
	}
	for _, bound := range []float64{0.05, 0.20, 0.50} {
		groups, err := aggregate.Optimizer(grouping.OptimizeParams{
			Measure:         vec,
			MaxLossFraction: bound,
			ESTTolerance:    4,
			MaxGroupSize:    32,
		}).Group(context.Background(), offers)
		if err != nil {
			return nil, err
		}
		if err := emit("optimizing", fmt.Sprintf("loss≤%.0f%%", 100*bound), groups); err != nil {
			return nil, err
		}
	}
	r.Notes = append(r.Notes,
		"Shape: optimizing grouping dominates similarity grouping on retained vector flexibility at comparable reduction; tightening the loss bound trades reduction for retention.",
		"All-consumption population, so no strategy produces mixed aggregates here; see the aggregation example for the balance-aware mixed case.")
	return r, nil
}

// SchedulerAblation is experiment X6: the greedy scheduler with and
// without the local-search Improve pass, across placement orders. The
// improvement pass should reduce imbalance for every order, and the
// combination least-flexible-first + Improve should be the strongest.
func SchedulerAblation() (*Result, error) {
	r := &Result{
		ID:     "X6",
		Title:  "scheduler ablation: greedy vs. greedy+local search (400 offers vs. wind target, seed 1006)",
		Header: []string{"order", "imbalance greedy", "imbalance +improve", "reduction %"},
	}
	rng := rand.New(rand.NewSource(seedX6))
	offers, err := workload.Population(rng, 400, 2, workload.ConsumptionMix())
	if err != nil {
		return nil, err
	}
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	horizon := 3 * workload.SlotsPerDay
	target := workload.WindProfile(rng, horizon, expected/int64(horizon))
	orders := []struct {
		order sched.Order
		m     core.Measure
	}{
		{sched.OrderArrival, nil},
		{sched.OrderLeastFlexibleFirst, core.VectorMeasure{}},
		{sched.OrderMostFlexibleFirst, core.VectorMeasure{}},
	}
	for _, o := range orders {
		opts := sched.Options{Order: o.order, Measure: o.m}
		base, err := sched.Schedule(offers, target, opts)
		if err != nil {
			return nil, err
		}
		improved, err := sched.Improve(offers, target, base, 4)
		if err != nil {
			return nil, err
		}
		b := base.Imbalance(target)
		a := improved.Imbalance(target)
		red := 0.0
		if b > 0 {
			red = 100 * (b - a) / b
		}
		r.Rows = append(r.Rows, []string{
			o.order.String(),
			fmt.Sprintf("%.0f", b), fmt.Sprintf("%.0f", a), fmt.Sprintf("%.1f", red),
		})
	}
	r.Notes = append(r.Notes,
		"Shape: local search reduces imbalance for every construction order, and narrows the gap between orders — the greedy's early commitments are the dominant error source.")
	return r, nil
}
