package flex

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"flexmeasures/internal/experiments"
	"flexmeasures/internal/grid"
	"flexmeasures/internal/market"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

// benchExperiment runs one paper experiment per iteration and fails the
// benchmark if the regenerated values stop matching the paper.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artefact (DESIGN.md experiment index).

func BenchmarkFigure1(b *testing.B)        { benchExperiment(b, "F1") }
func BenchmarkExample4(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkFigure2(b *testing.B)        { benchExperiment(b, "F2") }
func BenchmarkFigure3(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkFigure4(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkFigure5(b *testing.B)        { benchExperiment(b, "F5") }
func BenchmarkFigure6(b *testing.B)        { benchExperiment(b, "F6") }
func BenchmarkFigure7(b *testing.B)        { benchExperiment(b, "F7") }
func BenchmarkExamples11to13(b *testing.B) { benchExperiment(b, "E11-13") }
func BenchmarkTable1(b *testing.B)         { benchExperiment(b, "T1") }

// Extended experiments (X1–X4) are heavier; they regenerate the
// EXPERIMENTS.md tables.

func BenchmarkAggregationLoss(b *testing.B)     { benchExperiment(b, "X1") }
func BenchmarkSchedulingByMeasure(b *testing.B) { benchExperiment(b, "X2") }
func BenchmarkMarketValue(b *testing.B)         { benchExperiment(b, "X3") }
func BenchmarkMeasureCorrelation(b *testing.B)  { benchExperiment(b, "X4") }

// Ablations of this library's extensions (DESIGN.md §5 design choices).

func BenchmarkGroupingAblation(b *testing.B)    { benchExperiment(b, "X5") }
func BenchmarkSchedulerAblation(b *testing.B)   { benchExperiment(b, "X6") }
func BenchmarkDecomposabilityCost(b *testing.B) { benchExperiment(b, "X7") }
func BenchmarkPeakShaving(b *testing.B)         { benchExperiment(b, "X8") }

// Micro-benchmarks for the core operations a downstream system calls in
// volume.

func benchOffers(n int) []*FlexOffer {
	r := rand.New(rand.NewSource(99))
	offers, err := workload.Population(r, n, 3, workload.DefaultMix())
	if err != nil {
		panic(err)
	}
	return offers
}

func BenchmarkAllMeasuresSingleOffer(b *testing.B) {
	offers := benchOffers(256)
	ms := AllMeasures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := offers[i%len(offers)]
		for _, m := range ms {
			// Mixed offers make relative_area error; that path is
			// part of the measured cost.
			_, _ = m.Value(f)
		}
	}
}

func BenchmarkUnionAreaSweep(b *testing.B) {
	offers := benchOffers(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.UnionAreaSize(offers[i%len(offers)])
	}
}

func BenchmarkAssignmentCount(b *testing.B) {
	offers := benchOffers(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offers[i%len(offers)].AssignmentCount()
	}
}

func BenchmarkValidAssignmentCountDP(b *testing.B) {
	offers := benchOffers(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offers[i%len(offers)].ValidAssignmentCount()
	}
}

// BenchmarkMeasures50k is Engine.Measures, the evaluation behind
// GET /v1/measures, over 50k offers on a one-shard engine with the
// default worker count.
func BenchmarkMeasures50k(b *testing.B) {
	offers := benchOffers(50000)
	eng := New()
	defer eng.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Measures(ctx, offers); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGroup is the grouping the aggregation and pipeline benchmarks
// run under.
var benchGroup = GroupParams{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 64}

// benchAggregate times Engine.Aggregate over the offers on a one-shard
// engine of the given worker count.
func benchAggregate(b *testing.B, offers []*FlexOffer, workers int) {
	eng := New(WithWorkers(workers), WithGrouping(benchGroup))
	defer eng.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Aggregate(ctx, offers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregate1000 is the serial (one-worker) engine aggregation.
func BenchmarkAggregate1000(b *testing.B) {
	b.ReportAllocs()
	benchAggregate(b, benchOffers(1000), 1)
}

// BenchmarkAggregate1000Parallel is the worker-pool counterpart of
// BenchmarkAggregate1000; compare the workers=N sub-benchmarks against it
// (and each other) for the parallel speedup on multi-core hardware.
func BenchmarkAggregate1000Parallel(b *testing.B) {
	offers := benchOffers(1000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchAggregate(b, offers, workers)
		})
	}
}

func BenchmarkSchedule500(b *testing.B) {
	offers := benchOffers(500)
	r := rand.New(rand.NewSource(7))
	target := workload.WindProfile(r, 4*workload.SlotsPerDay, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(offers, target, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulePipeline1000 measures the stateless
// group→aggregate→schedule→disaggregate chain end to end through
// Engine.Pipeline; compare the shards=S/workers=N sub-benchmarks on
// multi-core hardware.
func BenchmarkSchedulePipeline1000(b *testing.B) {
	offers := benchOffers(1000)
	r := rand.New(rand.NewSource(7))
	target := workload.WindProfile(r, 4*workload.SlotsPerDay, 50)
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				eng := NewSharded(shards, WithWorkers(workers), WithGrouping(benchGroup), WithSafe(true))
				defer eng.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Pipeline(ctx, offers, target); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCheapestAssignment(b *testing.B) {
	offers := benchOffers(256)
	r := rand.New(rand.NewSource(7))
	prices := workload.DayAheadPrices(r, 5*workload.SlotsPerDay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prices.CheapestAssignment(offers[i%len(offers)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueOfFlexibility(b *testing.B) {
	offers := benchOffers(256)
	r := rand.New(rand.NewSource(7))
	prices := workload.DayAheadPrices(r, 5*workload.SlotsPerDay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := market.ValueOfFlexibility(offers[i%len(offers)], prices); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeriesNorms(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	vals := make([]int64, 96)
	for i := range vals {
		vals[i] = int64(r.Intn(100) - 50)
	}
	s := timeseries.New(0, vals...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NormL1()
		s.NormL2()
		s.NormLInf()
	}
}

func BenchmarkAlignmentAblation(b *testing.B) { benchExperiment(b, "X9") }
