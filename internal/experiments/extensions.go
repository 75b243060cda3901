package experiments

import (
	"fmt"
	"math/rand"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// Seeds for the extension experiments.
const (
	seedX7 = 1007
	seedX8 = 1008
)

// DecomposabilityCost is experiment X7: what guaranteed disaggregation
// costs in measured flexibility. Plain start-alignment aggregation keeps
// the constituents' total-energy slack but may produce aggregate
// assignments that no redistribution can decompose; AggregateSafe
// tightens totals into slice bounds first, making every assignment
// decomposable. The difference, per measure, is the price of that
// guarantee — a trade-off only expressible *with* the paper's measures.
func DecomposabilityCost() (*Result, error) {
	r := &Result{
		ID:     "X7",
		Title:  "flexibility cost of guaranteed disaggregation: plain vs. safe aggregation (800 offers, seed 1007)",
		Header: []string{"measure", "plain kept %", "safe kept %", "cost of guarantee (pp)"},
	}
	rng := rand.New(rand.NewSource(seedX7))
	offers, err := workload.Population(rng, 800, 2, workload.ConsumptionMix())
	if err != nil {
		return nil, err
	}
	params := aggregate.GroupParams{ESTTolerance: 2, TFTolerance: 4, MaxGroupSize: 32}
	plain, err := aggregate.AggregateAll(offers, params)
	if err != nil {
		return nil, err
	}
	safe, err := aggregate.AggregateAllSafe(offers, params)
	if err != nil {
		return nil, err
	}
	measures := []core.Measure{
		core.EnergyMeasure{}, core.ProductMeasure{}, core.VectorMeasure{},
		core.AbsoluteAreaMeasure{}, core.EntropyMeasure{},
	}
	for _, m := range measures {
		pKept, err := aggregate.RetainedFraction(plain, m)
		if err != nil {
			return nil, err
		}
		sKept, err := aggregate.RetainedFraction(safe, m)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			m.Name(),
			fmt.Sprintf("%.1f", 100*pKept), fmt.Sprintf("%.1f", 100*sKept),
			fmt.Sprintf("%.1f", 100*(pKept-sKept)),
		})
	}
	r.Notes = append(r.Notes,
		"Shape: tightening preserves cmin/cmax, so totals-based measures (energy, product, vector) see no cost; the price lands exactly on the measures that read per-slice ranges — entropy/assignments — because folding an EV's 60% minimum charge into the slice minima removes per-slot choices.",
		"Both variants aggregate the same groups, so the comparison isolates the tightening step.")
	return r, nil
}

// PeakShaving is experiment X8: the DSO congestion scenario from the
// paper's introduction. The same fleet is scheduled against a flat
// target with and without a peak cap; flexibility is what makes the cap
// achievable, and the imbalance shows what the cap costs.
func PeakShaving() (*Result, error) {
	r := &Result{
		ID:     "X8",
		Title:  "peak shaving under a grid cap (300 offers, seed 1008)",
		Header: []string{"peak cap", "peak load", "imbalance (L1)", "cap met"},
	}
	rng := rand.New(rand.NewSource(seedX8))
	offers, err := workload.Population(rng, 300, 1, workload.ConsumptionMix())
	if err != nil {
		return nil, err
	}
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	horizon := 2 * workload.SlotsPerDay
	target := timeseries.Constant(0, horizon, expected/int64(horizon))
	uncapped, err := sched.Schedule(offers, target, sched.Options{})
	if err != nil {
		return nil, err
	}
	base := uncapped.PeakLoad()
	r.Rows = append(r.Rows, []string{"none", fmt.Sprintf("%d", base),
		fmt.Sprintf("%.0f", uncapped.Imbalance(target)), "—"})
	for _, frac := range []float64{0.9, 0.75, 0.6} {
		cap := int64(float64(base) * frac)
		res, err := sched.Schedule(offers, target, sched.Options{PeakCap: cap})
		if err != nil {
			return nil, err
		}
		met := "yes"
		if res.PeakLoad() > cap {
			met = "no (soft cap)"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d (%.0f%%)", cap, 100*frac),
			fmt.Sprintf("%d", res.PeakLoad()),
			fmt.Sprintf("%.0f", res.Imbalance(target)),
			met,
		})
	}
	r.Notes = append(r.Notes,
		"Shape: time flexibility lets the fleet duck under progressively tighter caps; past the fleet's mandatory concurrency the cap turns soft and overage reappears.")
	return r, nil
}

// seedX9 seeds the alignment ablation.
const seedX9 = 1009

// AlignmentAblation is experiment X9: earliest- vs latest-start
// alignment inside each aggregate. The two anchorings produce different
// aggregate profiles whenever the group mixes narrow and wide start
// windows, and the measures quantify which anchoring keeps more
// flexibility on a given population.
func AlignmentAblation() (*Result, error) {
	r := &Result{
		ID:     "X9",
		Title:  "aggregation alignment ablation: earliest vs. latest anchoring (600 offers, seed 1009)",
		Header: []string{"alignment", "groups", "vector_l1 kept %", "abs_area kept %", "entropy kept %"},
	}
	rng := rand.New(rand.NewSource(seedX9))
	offers, err := workload.Population(rng, 600, 2, workload.ConsumptionMix())
	if err != nil {
		return nil, err
	}
	groups := grouping.Group(offers, grouping.Params{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 32})
	measures := []core.Measure{core.VectorMeasure{}, core.AbsoluteAreaMeasure{}, core.EntropyMeasure{}}
	for _, al := range []aggregate.Alignment{aggregate.AlignEarliest, aggregate.AlignLatest} {
		ags := make([]*aggregate.Aggregated, 0, len(groups))
		for _, g := range groups {
			ag, err := aggregate.AggregateAligned(g, al)
			if err != nil {
				return nil, err
			}
			ags = append(ags, ag)
		}
		row := []string{al.String(), fmt.Sprintf("%d", len(ags))}
		for _, m := range measures {
			kept, err := aggregate.RetainedFraction(ags, m)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", 100*kept))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"Shape: on release-time-clustered populations the anchorings retain similar vector flexibility, but latest alignment concentrates profiles at deadlines, changing the area and entropy retention; which anchoring wins is population-dependent — which is why the measures, not intuition, should pick it.")
	return r, nil
}
