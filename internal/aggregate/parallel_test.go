package aggregate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
)

// randomOffers generates a reproducible population of mixed-sign offers
// with varied windows, profiles and (sometimes tightened) totals. The
// workload package would do this, but it depends on market, which
// depends on this package — an import cycle inside the test binary — so
// the generator is local.
func randomOffers(t *testing.T, seed int64, n int) []*flexoffer.FlexOffer {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	offers := make([]*flexoffer.FlexOffer, n)
	for i := range offers {
		est := r.Intn(72)
		tf := r.Intn(8)
		slices := make([]flexoffer.Slice, 1+r.Intn(5))
		for j := range slices {
			lo := int64(r.Intn(9) - 4)
			slices[j] = flexoffer.Slice{Min: lo, Max: lo + int64(r.Intn(5))}
		}
		f, err := flexoffer.New(est, est+tf, slices...)
		if err != nil {
			t.Fatal(err)
		}
		if span := f.TotalMax - f.TotalMin; r.Intn(3) == 0 && span >= 4 {
			f, err = flexoffer.NewWithTotals(est, est+tf, slices, f.TotalMin+span/4, f.TotalMax-span/4)
			if err != nil {
				t.Fatal(err)
			}
		}
		f.ID = fmt.Sprintf("o%d", i)
		offers[i] = f
	}
	return offers
}

// encodeAggregates serializes every aggregate offer and its constituents,
// so equality of the returned bytes means byte-identical pipelines.
func encodeAggregates(t *testing.T, ags []*Aggregated) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ag := range ags {
		if err := flexoffer.Encode(&buf, append([]*flexoffer.FlexOffer{ag.Offer}, ag.Constituents...)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// aggregateAllParallel groups the offers with the serial threshold
// grouping and aggregates the groups under pp: the whole-offer form of
// AggregateGroupsParallel the tests below exercise.
func aggregateAllParallel(ctx context.Context, offers []*flexoffer.FlexOffer, gp GroupParams, pp ParallelParams) ([]*Aggregated, error) {
	return AggregateGroupsParallel(ctx, grouping.Group(offers, gp), pp)
}

// TestAggregateAllParallelMatchesSerial is the equivalence property test:
// across randomized offer sets and worker counts, the parallel pipeline
// must produce byte-identical output to the serial one.
func TestAggregateAllParallelMatchesSerial(t *testing.T) {
	params := []GroupParams{
		{ESTTolerance: 0, TFTolerance: -1},
		{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 8},
		{ESTTolerance: 12, TFTolerance: 2, MaxGroupSize: 3},
	}
	for seed := int64(0); seed < 8; seed++ {
		offers := randomOffers(t, seed, 50+int(seed)*40)
		gp := params[seed%int64(len(params))]
		serial, err := AggregateAll(offers, gp)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		want := encodeAggregates(t, serial)
		for _, workers := range []int{0, 1, 2, 4, 7} {
			parallel, err := aggregateAllParallel(context.Background(), offers, gp, ParallelParams{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("seed %d workers %d: parallel output diverges from serial", seed, workers)
			}
			if got := encodeAggregates(t, parallel); !bytes.Equal(want, got) {
				t.Fatalf("seed %d workers %d: serialized output not byte-identical", seed, workers)
			}
		}
	}
}

// TestAggregateAllParallelDeterministicUnderRace runs concurrent
// pipelines under t.Parallel so `go test -race` exercises the pool's
// synchronization while checking determinism.
func TestAggregateAllParallelDeterministicUnderRace(t *testing.T) {
	offers := randomOffers(t, 42, 200)
	gp := GroupParams{ESTTolerance: 4, TFTolerance: -1, MaxGroupSize: 16}
	serial, err := AggregateAll(offers, gp)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			pp := ParallelParams{Workers: workers, BatchSize: workers % 3} // exercise explicit and automatic batching
			for rep := 0; rep < 4; rep++ {
				got, err := aggregateAllParallel(context.Background(), offers, gp, pp)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, got) {
					t.Fatalf("rep %d: nondeterministic output", rep)
				}
			}
		})
	}
}

func TestAggregateAllParallelEmptyAndSingle(t *testing.T) {
	got, err := aggregateAllParallel(context.Background(), nil, GroupParams{}, ParallelParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("empty input: want empty non-nil slice, got %#v", got)
	}
	f := flexoffer.MustNew(2, 5, flexoffer.Slice{Min: 1, Max: 3})
	got, err = aggregateAllParallel(context.Background(), []*flexoffer.FlexOffer{f}, GroupParams{}, ParallelParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Constituents) != 1 {
		t.Fatalf("single offer: got %d aggregates", len(got))
	}
	serial, err := AggregateAll([]*flexoffer.FlexOffer{f}, GroupParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, got) {
		t.Fatal("single-offer parallel output diverges from serial")
	}
}

func TestAggregateAllParallelPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	offers := randomOffers(t, 1, 50)
	_, err := aggregateAllParallel(ctx, offers, GroupParams{ESTTolerance: 4, TFTolerance: -1}, ParallelParams{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAggregateAllParallelCancelMidBatch cancels the context from inside
// the third aggregation call and checks that the pipeline stops claiming
// groups and surfaces ctx's error.
func TestAggregateAllParallelCancelMidBatch(t *testing.T) {
	offers := randomOffers(t, 2, 400)
	groups := grouping.Group(offers, GroupParams{ESTTolerance: 0, TFTolerance: -1, MaxGroupSize: 4})
	if len(groups) < 10 {
		t.Fatalf("need ≥10 groups for a mid-batch cancel, got %d", len(groups))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls, after atomic.Int32
	agg := func(g []*flexoffer.FlexOffer, src source) (*Aggregated, int, error) {
		if calls.Add(1) == 3 {
			cancel()
		} else if calls.Load() > 3 {
			after.Add(1)
		}
		return validated.aggregate(g, src)
	}
	_, _, err := aggregateGroupsParallel(ctx, groups, agg, Sources{}, ParallelParams{Workers: 2, BatchSize: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// In-flight groups may finish, but the pool must stop claiming new
	// ones: with 2 workers at most 1 other group can still have been
	// started after the cancelling call.
	if a := after.Load(); a > 1 {
		t.Fatalf("%d groups aggregated after cancellation", a)
	}
}

// invalidOffer builds an offer that fails Validate (no slices) at the
// given earliest start, bypassing the constructors.
func invalidOffer(id string, est int) *flexoffer.FlexOffer {
	return &flexoffer.FlexOffer{ID: id, EarliestStart: est, LatestStart: est + 1}
}

func TestAggregateAllParallelFirstError(t *testing.T) {
	offers := randomOffers(t, 3, 30)
	for i := range offers {
		offers[i].EarliestStart, offers[i].LatestStart = 0, offers[i].LatestStart-offers[i].EarliestStart
	}
	bad := invalidOffer("bad-offer", 500) // far EST → its own group, the last one
	offers = append(offers, bad)
	_, err := aggregateAllParallel(context.Background(), offers, GroupParams{ESTTolerance: 4, TFTolerance: -1}, ParallelParams{Workers: 4})
	if err == nil {
		t.Fatal("invalid constituent must fail")
	}
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("got %T (%v), want *GroupError", err, err)
	}
	if ge.Size != 1 || ge.FirstID != "bad-offer" {
		t.Fatalf("group context not preserved: %+v", ge)
	}
	if !errors.Is(err, flexoffer.ErrNoSlices) {
		t.Fatalf("underlying cause lost: %v", err)
	}
}

func TestAggregateAllParallelCollectAll(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, flexoffer.Slice{Min: 1, Max: 2}),
		invalidOffer("bad-a", 100),
		flexoffer.MustNew(200, 202, flexoffer.Slice{Min: 1, Max: 2}),
		invalidOffer("bad-b", 300),
	}
	_, err := aggregateAllParallel(context.Background(), offers, GroupParams{ESTTolerance: 0, TFTolerance: -1},
		ParallelParams{Workers: 4, ErrorMode: CollectAll})
	var ges GroupErrors
	if !errors.As(err, &ges) {
		t.Fatalf("got %T (%v), want GroupErrors", err, err)
	}
	if len(ges) != 2 {
		t.Fatalf("want 2 group errors, got %d: %v", len(ges), err)
	}
	if ges[0].Group >= ges[1].Group {
		t.Fatalf("errors not sorted by group index: %v", err)
	}
	if ges[0].FirstID != "bad-a" || ges[1].FirstID != "bad-b" {
		t.Fatalf("wrong groups identified: %v", err)
	}
	if !errors.Is(err, flexoffer.ErrNoSlices) {
		t.Fatalf("underlying cause lost through GroupErrors: %v", err)
	}
}

// TestAggregateAllSerialGroupContext checks that the serial pipeline
// carries the same identifying context as the parallel one.
func TestAggregateAllSerialGroupContext(t *testing.T) {
	offers := []*flexoffer.FlexOffer{
		flexoffer.MustNew(0, 2, flexoffer.Slice{Min: 1, Max: 2}),
		invalidOffer("needle", 100),
	}
	_, err := AggregateAll(offers, GroupParams{ESTTolerance: 0, TFTolerance: -1})
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("got %T (%v), want *GroupError", err, err)
	}
	if ge.Group != 1 || ge.Size != 1 || ge.FirstID != "needle" {
		t.Fatalf("group context missing: %+v", ge)
	}
	if !errors.Is(err, flexoffer.ErrNoSlices) {
		t.Fatalf("underlying cause lost: %v", err)
	}
}

func TestAggregateAllSafeParallelMatchesSerial(t *testing.T) {
	offers := randomOffers(t, 5, 120)
	gp := GroupParams{ESTTolerance: 6, TFTolerance: -1, MaxGroupSize: 10}
	serial, err := AggregateAllSafe(offers, gp)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := AggregateGroupsSafeParallel(context.Background(), grouping.Group(offers, gp), ParallelParams{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("safe parallel output diverges from serial")
	}
}

func TestAggregateGroupsParallelBalanceGroups(t *testing.T) {
	offers := randomOffers(t, 6, 150)
	groups := grouping.BalanceGroups(offers, grouping.BalanceParams{ESTTolerance: 8, MaxGroupSize: 12})
	serial, err := aggregateGroups(groups, Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := AggregateGroupsParallel(context.Background(), groups, ParallelParams{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("balance-grouped parallel output diverges from serial")
	}
}

// TestOptimizeGroupsWorkerCountInvariant checks that the concurrent
// mergePass scan is invisible in the result: any worker count yields the
// exact grouping of the serial scan.
func TestOptimizeGroupsWorkerCountInvariant(t *testing.T) {
	offers := randomOffers(t, 7, 60)
	base := grouping.OptimizeParams{
		Measure:         core.VectorMeasure{},
		MaxLossFraction: 0.5,
		ESTTolerance:    -1,
		MaxGroupSize:    6,
		Workers:         1,
	}
	want, err := optimizeGroups(offers, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8} {
		p := base
		p.Workers = workers
		got, err := optimizeGroups(offers, p)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers %d: grouping differs from serial scan", workers)
		}
	}
}

func TestErrorModeString(t *testing.T) {
	if FirstError.String() != "first-error" || CollectAll.String() != "collect-all" {
		t.Fatal("ErrorMode names changed")
	}
	if ErrorMode(9).String() != "ErrorMode(9)" {
		t.Fatal("unknown ErrorMode formatting changed")
	}
}
