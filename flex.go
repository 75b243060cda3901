// Package flex is the public API of flexmeasures, a Go implementation of
// the flex-offer energy-flexibility model and the eight flexibility
// measures of
//
//	E. Valsomatzis, K. Hose, T. B. Pedersen, L. Šikšnys:
//	"Measuring and Comparing Energy Flexibilities",
//	Proceedings of the Workshops of the EDBT/ICDT 2015 Joint Conference.
//
// A flex-offer (Definition 1) describes a prosumer's flexible energy
// need: a start-time window [tes, tls], a profile of unit-duration
// slices each carrying an energy range [amin, amax], and total energy
// constraints [cmin, cmax]. An Assignment (Definition 2) instantiates
// the offer into a concrete start time and energy values. The package
// quantifies how much flexibility an offer (or a set of offers) holds
// via the paper's measures — time, energy, product, vector, time-series,
// assignments, absolute area and relative area — plus a displacement
// extension, and ships the substrates the paper's two application
// scenarios need: aggregation with disaggregation, target-tracking
// scheduling, and market valuation.
//
// # The Engine
//
// The primary entry point is the Engine: one long-lived,
// goroutine-safe object, configured once with functional options, that
// owns persistent worker pools and presents every batch operation as a
// context-first method:
//
//	eng := flex.New(
//		flex.WithWorkers(8),
//		flex.WithGrouping(flex.GroupParams{ESTTolerance: 2, TFTolerance: -1}),
//		flex.WithSafe(true),
//		flex.WithPeakCap(500),
//	)
//	defer eng.Close()
//
//	ags, err := eng.Aggregate(ctx, offers)          // Scenario 1 aggregation
//	res, err := eng.Pipeline(ctx, offers, target)   // group→aggregate→schedule→disaggregate
//	tab, err := eng.Measures(ctx, offers)           // the paper's eight measures
//
// Create one Engine at startup, share it across requests (concurrent
// calls share the pools without sharing per-call state), and Close it
// on shutdown. One option set governs every method — WithPeakCap, for
// example, applies to Schedule and Pipeline alike — so the same setting
// can never silently differ between paths. Any method also accepts
// per-call options that override the engine's set for that one call
// (eng.Aggregate(ctx, offers, WithGrouping(p)) sweeps a grouping
// tolerance without a second engine), and pre-computed groups — from
// BalanceGroups or OptimizeGroups — go straight to
// Engine.AggregateGroups.
//
// An engine is split into shards, each owning one worker pool: New
// builds one shard, NewSharded(n) builds n, and a shard router (grid
// zone, prosumer ID hash, or round-robin) spreads the offers across
// them. Every stage of the chain runs scatter-gather over the shards,
// grouping included: each shard stable-sorts its part by (earliest
// start, time flexibility) with an O(n) radix sort, the runs are
// k-way merged into the global grouping order, and the merged order is
// cut into independent segments at every earliest-start gap wider than
// the tolerance and packed concurrently — bit-identical to the serial
// GroupOffers for every shard and worker count. WithGrouper installs
// another strategy (ShardedGrouper, BalanceGrouper, OptimizeGrouper, or
// your own); WithGrouping tunes the built-in tolerances. Aggregation
// across groups is embarrassingly parallel, so Engine.Aggregate fans
// the groups across the pools in contiguous blocks and still yields
// results identical to the serial path in the same group order;
// per-group failures are reported as GroupError (first-error mode) or
// GroupErrors (collect-all mode), each identifying the failing group by
// index, size and first constituent ID. Engine.Pipeline chains the
// paper's entire Scenario 1 — group → aggregate → schedule →
// disaggregate — without materializing the aggregate batch: each
// finished aggregate is handed straight to the scheduler, which places
// it the moment its group index is next, and the scheduled aggregates
// fan back out to per-prosumer assignments on the same pools. The
// scheduler scores every candidate start in O(profile) with zero
// allocations via an incremental load−target residual
// (timeseries.Accumulator).
//
// The per-offer primitives (constructors, the measure functions,
// market valuation, workload generation, codecs) are free functions.
//
// # Quick start
//
//	f, err := flex.NewFlexOffer(1, 6,
//		flex.Slice{Min: 1, Max: 3}, flex.Slice{Min: 2, Max: 4},
//		flex.Slice{Min: 0, Max: 5}, flex.Slice{Min: 0, Max: 3})
//	if err != nil { ... }
//	fmt.Println(flex.ProductFlexibility(f)) // 60, the paper's Example 3
//
// The examples/ directory contains runnable programs for the paper's EV
// use case, aggregation (Scenario 1) and flexibility trading
// (Scenario 2); cmd/flexbench regenerates every table and figure of the
// paper, cmd/flexctl drives the Engine from the command line, and
// cmd/flexd serves it over HTTP — NDJSON offer ingestion sharded
// across the engine's pool (internal/ingest), the full Scenario-1
// chain as POST /v1/schedule, and the measures as GET /v1/measures.
package flex

import (
	"context"
	"math/big"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grid"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/timeseries"
)

// Model types (Definitions 1 and 2).
type (
	// FlexOffer is the paper's Definition 1.
	FlexOffer = flexoffer.FlexOffer
	// Slice is one unit-duration element of the energy profile.
	Slice = flexoffer.Slice
	// Assignment is the paper's Definition 2.
	Assignment = flexoffer.Assignment
	// Kind classifies offers as consumption, production or mixed.
	Kind = flexoffer.Kind
	// Builder assembles flex-offers fluently.
	Builder = flexoffer.Builder
	// Series is an integer-valued time series.
	Series = timeseries.Series
	// Norm selects a norm (L1, L2, LInf) for vectors and series.
	Norm = timeseries.Norm
)

// Kind values.
const (
	Positive = flexoffer.Positive
	Negative = flexoffer.Negative
	Mixed    = flexoffer.Mixed
)

// Norm values.
const (
	L1   = timeseries.L1
	L2   = timeseries.L2
	LInf = timeseries.LInf
)

// NewFlexOffer returns a validated flex-offer with the totals defaulted
// to the slice sums; see flexoffer.New.
func NewFlexOffer(earliestStart, latestStart int, slices ...Slice) (*FlexOffer, error) {
	return flexoffer.New(earliestStart, latestStart, slices...)
}

// NewFlexOfferWithTotals returns a validated flex-offer with explicit
// total energy constraints cmin and cmax.
func NewFlexOfferWithTotals(earliestStart, latestStart int, slices []Slice, totalMin, totalMax int64) (*FlexOffer, error) {
	return flexoffer.NewWithTotals(earliestStart, latestStart, slices, totalMin, totalMax)
}

// NewBuilder starts a fluent flex-offer builder.
func NewBuilder() *Builder { return flexoffer.NewBuilder() }

// NewAssignment returns an assignment with a copy of the values.
func NewAssignment(start int, values ...int64) Assignment {
	return flexoffer.NewAssignment(start, values...)
}

// NewSeries returns a time series starting at start.
func NewSeries(start int, values ...int64) Series {
	return timeseries.New(start, values...)
}

// Measure presents any of the paper's flexibility measures uniformly;
// see the core package documentation for the Section 4 set semantics.
type Measure = core.Measure

// Characteristics is one column of the paper's Table 1.
type Characteristics = core.Characteristics

// Vector is the Definition 4 flexibility vector ⟨tf, ef⟩.
type Vector = core.Vector

// The eight canonical measures as Measure implementations.
type (
	// TimeMeasure is Section 3.1's time flexibility.
	TimeMeasure = core.TimeMeasure
	// EnergyMeasure is Section 3.1's energy flexibility.
	EnergyMeasure = core.EnergyMeasure
	// ProductMeasure is Definition 3.
	ProductMeasure = core.ProductMeasure
	// VectorMeasure is Definition 4 under a norm.
	VectorMeasure = core.VectorMeasure
	// SeriesMeasure is Definition 7 under a norm.
	SeriesMeasure = core.SeriesMeasure
	// AssignmentsMeasure is Definition 8.
	AssignmentsMeasure = core.AssignmentsMeasure
	// AbsoluteAreaMeasure is Definition 10.
	AbsoluteAreaMeasure = core.AbsoluteAreaMeasure
	// RelativeAreaMeasure is Definition 11.
	RelativeAreaMeasure = core.RelativeAreaMeasure
	// WeightedMeasure combines measures as Section 4 suggests.
	WeightedMeasure = core.WeightedMeasure
)

// TimeFlexibility returns tf(f) = tls − tes.
func TimeFlexibility(f *FlexOffer) int { return core.TimeFlexibility(f) }

// EnergyFlexibility returns ef(f) = cmax − cmin.
func EnergyFlexibility(f *FlexOffer) int64 { return core.EnergyFlexibility(f) }

// ProductFlexibility returns tf(f)·ef(f) (Definition 3).
func ProductFlexibility(f *FlexOffer) int64 { return core.ProductFlexibility(f) }

// VectorFlexibility returns ⟨tf(f), ef(f)⟩ (Definition 4).
func VectorFlexibility(f *FlexOffer) Vector { return core.VectorFlexibility(f) }

// SeriesFlexibility returns the Definition 7 value under the norm.
func SeriesFlexibility(f *FlexOffer, n Norm) (float64, error) {
	return core.SeriesFlexibility(f, n)
}

// AssignmentFlexibility returns the Definition 8 assignment count.
func AssignmentFlexibility(f *FlexOffer) *big.Int { return core.AssignmentFlexibility(f) }

// AbsoluteAreaFlexibility returns the Definition 10 value.
func AbsoluteAreaFlexibility(f *FlexOffer) int64 { return core.AbsoluteAreaFlexibility(f) }

// RelativeAreaFlexibility returns the Definition 11 value.
func RelativeAreaFlexibility(f *FlexOffer) (float64, error) {
	return core.RelativeAreaFlexibility(f)
}

// DisplacementFlexibility is this library's extension measure curing the
// time blindness of the series measure (paper Example 13).
func DisplacementFlexibility(f *FlexOffer) (float64, error) {
	return core.DisplacementFlexibility(f)
}

// UnionAreaSize returns |⋃ area(fa)| over all assignments (Definition 10's
// first operand).
func UnionAreaSize(f *FlexOffer) int64 { return grid.UnionAreaSize(f) }

// AllMeasures returns the paper's eight measures in Table 1 order.
func AllMeasures() []Measure { return core.AllMeasures() }

// LookupMeasure resolves a measure by name (e.g. "product", "vector_l2").
func LookupMeasure(name string) (Measure, error) { return core.LookupMeasure(name) }

// MeasureNames lists the canonical measure names in Table 1 order.
func MeasureNames() []string { return core.MeasureNames() }

// NewWeightedMeasure validates and returns a weighted composite measure
// (Section 4's "Weighting is one way of combining different flexibility
// measures").
func NewWeightedMeasure(label string, measures []Measure, weights []float64) (*WeightedMeasure, error) {
	return core.NewWeightedMeasure(label, measures, weights)
}

// Table1 reproduces the paper's Table 1 for the given measures.
func Table1(measures []Measure) (cols []string, rows []string, cells [][]bool) {
	return core.Table1(measures)
}

// VerifyCharacteristics empirically checks a measure's declared Table 1
// row by probing it with witness flex-offers.
func VerifyCharacteristics(m Measure) error { return core.VerifyCharacteristics(m) }

// Aggregation (Scenario 1). See the aggregate package for the start-
// alignment semantics and the grouping package for the partitioning
// strategies.
type (
	// Aggregated couples an aggregate flex-offer with its constituents.
	Aggregated = aggregate.Aggregated
	// GroupParams controls similarity-based grouping.
	GroupParams = grouping.Params
	// BalanceParams controls balance-aware grouping.
	BalanceParams = grouping.BalanceParams
	// Grouper is a pluggable partitioning strategy — the entry stage of
	// the pipeline. Install one on an Engine with WithGrouper; the
	// grouping package ships the implementations.
	Grouper = grouping.Grouper
	// ShardedGrouper is the parallel threshold strategy over one
	// offer slice: offers are stably sorted by (earliest start, time
	// flexibility) with an O(n) radix sort, cut into independent
	// segments at every earliest-start gap wider than the tolerance,
	// and greedily packed per segment — bit-identical to GroupOffers
	// for every worker count. Install it with WithGrouper (optionally
	// with Pool set to an Engine's Executor) to group outside the
	// engine's shard routing.
	ShardedGrouper = grouping.Sharded
	// ThresholdGrouper is the serial threshold strategy (the
	// ShardedGrouper's oracle).
	ThresholdGrouper = grouping.Threshold
	// BalanceGrouper is the balance-aware strategy of BalanceGroups as
	// a Grouper.
	BalanceGrouper = grouping.Balance
)

// OptimizeGrouper adapts the loss-bounded optimizing strategy of
// OptimizeGroups into a Grouper for WithGrouper.
func OptimizeGrouper(p OptimizeParams) Grouper {
	return aggregate.Optimizer(p)
}

// Aggregate combines a group of flex-offers into one by start alignment.
func Aggregate(group []*FlexOffer) (*Aggregated, error) { return aggregate.Aggregate(group) }

// GroupOffers partitions offers into aggregation-compatible groups.
func GroupOffers(offers []*FlexOffer, p GroupParams) [][]*FlexOffer {
	return grouping.Group(offers, p)
}

// BalanceGroups partitions offers into groups mixing production and
// consumption so each aggregate nets out near zero (reference [14]).
func BalanceGroups(offers []*FlexOffer, p BalanceParams) [][]*FlexOffer {
	return grouping.BalanceGroups(offers, p)
}

// Parallel execution and failure-reporting types; see the aggregate
// package for the determinism guarantees.
type (
	// Executor is the execution substrate of a parallel stage: an
	// Engine's persistent pool implements it, nil means per-call
	// goroutine spin-up.
	Executor = aggregate.Executor
	// ErrorMode selects first-error or collect-all failure reporting.
	ErrorMode = aggregate.ErrorMode
	// GroupError identifies one failing group (index, size, first ID).
	GroupError = aggregate.GroupError
	// GroupErrors is the collect-all failure report, sorted by group.
	GroupErrors = aggregate.GroupErrors
)

// ErrorMode values.
const (
	FirstError = aggregate.FirstError
	CollectAll = aggregate.CollectAll
)

// Alignment selects the anchoring of constituents inside an aggregate
// (AlignEarliest or AlignLatest).
type Alignment = aggregate.Alignment

// Alignment strategies.
const (
	AlignEarliest = aggregate.AlignEarliest
	AlignLatest   = aggregate.AlignLatest
)

// AggregateAligned combines a group under the chosen alignment.
func AggregateAligned(group []*FlexOffer, al Alignment) (*Aggregated, error) {
	return aggregate.AggregateAligned(group, al)
}

// AggregateSafe aggregates after tightening total constraints into the
// slice bounds, guaranteeing that every valid aggregate assignment
// disaggregates; WithSafe applies it to every group of an Engine.
func AggregateSafe(group []*FlexOffer) (*Aggregated, error) {
	return aggregate.AggregateSafe(group)
}

// OptimizeParams controls loss-bounded optimizing aggregation.
type OptimizeParams = grouping.OptimizeParams

// OptimizeGroups partitions offers by greedy agglomerative merging under
// a relative flexibility-loss bound — the paper's Section 6 future work
// of performing aggregation jointly with flexibility optimization.
func OptimizeGroups(offers []*FlexOffer, p OptimizeParams) ([][]*FlexOffer, error) {
	return aggregate.Optimizer(p).Group(context.Background(), offers)
}

// RetainedFraction reports the share of the constituents' flexibility
// the aggregates keep under measure m (1 = lossless).
func RetainedFraction(ags []*Aggregated, m Measure) (float64, error) {
	return aggregate.RetainedFraction(ags, m)
}

// Extension measures beyond the paper's eight (Section 6 direction).
type (
	// EntropyMeasure is log₂ of the assignment count.
	EntropyMeasure = core.EntropyMeasure
	// DisplacementMeasure is the earth-mover travel of the maximal
	// profile across the start window.
	DisplacementMeasure = core.DisplacementMeasure
	// TemporalSeriesMeasure is Definition 7 under the temporal Lp norm
	// of the paper's reference [7].
	TemporalSeriesMeasure = core.TemporalSeriesMeasure
)

// ExtensionMeasures returns this library's measures beyond the paper's
// eight.
func ExtensionMeasures() []Measure { return core.ExtensionMeasures() }

// EntropyFlexibility returns log₂ of the Definition 8 assignment count.
func EntropyFlexibility(f *FlexOffer) float64 { return core.EntropyFlexibility(f) }

// EncodeJSON writes offers as an indented JSON document; DecodeJSON
// reads one back. EncodeBinary/DecodeBinary use the compact varint
// stream format for bulk storage.
var (
	EncodeJSON   = flexoffer.Encode
	DecodeJSON   = flexoffer.Decode
	EncodeBinary = flexoffer.EncodeBinary
	DecodeBinary = flexoffer.DecodeBinary
)
