package aggregate_test

import (
	"context"
	"fmt"
	"log"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
)

// Example aggregates two flex-offers by start alignment and quantifies
// the flexibility loss (Scenario 1).
func Example() {
	a := flexoffer.MustNew(0, 3, flexoffer.Slice{Min: 0, Max: 1})
	b := flexoffer.MustNew(0, 1, flexoffer.Slice{Min: 0, Max: 1})
	ag, err := aggregate.Aggregate([]*flexoffer.FlexOffer{a, b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("aggregate:", ag.Offer)
	loss, err := ag.Loss(core.ProductMeasure{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("product loss:", loss)
	// Output:
	// aggregate: ([0,1],⟨[0,2]⟩,cmin=0,cmax=2)
	// product loss: 2
}

// ExampleAggregated_Disaggregate maps an aggregate assignment back to
// valid constituent assignments, preserving every slot sum.
func ExampleAggregated_Disaggregate() {
	a := flexoffer.MustNew(0, 2, flexoffer.Slice{Min: 1, Max: 3})
	b := flexoffer.MustNew(0, 2, flexoffer.Slice{Min: 2, Max: 4})
	ag, err := aggregate.Aggregate([]*flexoffer.FlexOffer{a, b})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := ag.Disaggregate(flexoffer.NewAssignment(1, 5))
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range parts {
		fmt.Println(p.Series())
	}
	// The 5 units split as minima (1 and 2) plus water-filled surplus,
	// left constituent first.
	// Output:
	// {1..1}⟨3⟩
	// {1..1}⟨2⟩
}

// ExampleAggregateAll partitions offers by start-time similarity and
// aggregates each group.
func ExampleAggregateAll() {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, flexoffer.Slice{Min: 1, Max: 2}),
		flexoffer.MustNew(1, 3, flexoffer.Slice{Min: 1, Max: 2}),
		flexoffer.MustNew(10, 12, flexoffer.Slice{Min: 1, Max: 2}),
	}
	ags, err := aggregate.AggregateAll(offers, aggregate.GroupParams{ESTTolerance: 2, TFTolerance: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(ags), "aggregates of", len(ags[0].Constituents), "and", len(ags[1].Constituents))
	// Output: 2 aggregates of 2 and 1
}

// ExampleOptimizer merges only while the relative flexibility loss
// stays under a bound — the paper's future-work "aggregation jointly
// with flexibility optimization".
func ExampleOptimizer() {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 4, flexoffer.Slice{Min: 1, Max: 2}),
		flexoffer.MustNew(0, 4, flexoffer.Slice{Min: 1, Max: 2}),
		flexoffer.MustNew(0, 0, flexoffer.Slice{Min: 1, Max: 2}), // would kill tf
	}
	groups, err := aggregate.Optimizer(grouping.OptimizeParams{
		Measure:         core.VectorMeasure{},
		MaxLossFraction: 0.45,
		ESTTolerance:    -1,
	}).Group(context.Background(), offers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(groups), "groups") // the tf=0 offer stays alone
	// Output: 2 groups
}
