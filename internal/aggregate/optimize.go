package aggregate

import (
	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
)

// The loss-bounded optimizing strategy lives in the grouping package;
// Optimizer injects this package's Aggregate as its combine step (the
// grouping package cannot depend on aggregation).

// combineForMeasure builds the aggregate flex-offer a candidate merge
// would produce — the CombineFunc the optimizing strategy scores merges
// with.
func combineForMeasure(group []*flexoffer.FlexOffer) (*flexoffer.FlexOffer, error) {
	ag, err := Aggregate(group)
	if err != nil {
		return nil, err
	}
	return ag.Offer, nil
}

// Optimizer returns the Grouper adapter of the optimizing strategy with
// this package's aggregation as the combine step, for installing on an
// Engine via flex.WithGrouper.
func Optimizer(p grouping.OptimizeParams) grouping.Optimize {
	return grouping.Optimize{Params: p, Combine: combineForMeasure}
}

// RetainedFraction reports how much of the group set's flexibility the
// aggregates keep under measure m: Σ value(aggregate) / setValue(all
// constituents). 1 means lossless; the Scenario 1 goal is to stay close
// to 1 with far fewer objects. Constituents are the original offers —
// untightened for safe aggregates — so plain and safe aggregation are
// measured against the same baseline.
func RetainedFraction(ags []*Aggregated, m core.Measure) (float64, error) {
	var all []*flexoffer.FlexOffer
	var after float64
	for _, ag := range ags {
		all = append(all, ag.Constituents...)
		v, err := m.Value(ag.Offer)
		if err != nil {
			return 0, err
		}
		after += v
	}
	before, err := m.SetValue(all)
	if err != nil {
		return 0, err
	}
	if before == 0 {
		return 1, nil
	}
	return after / before, nil
}
