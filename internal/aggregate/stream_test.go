package aggregate

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/timeseries"
)

func streamPopulation(t *testing.T, n int) ([]*flexoffer.FlexOffer, GroupParams) {
	t.Helper()
	return randomOffers(t, 5150, n), GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24}
}

// TestAggregateAllStreamMatchesBatch: collecting the group stream over
// the threshold grouping and sorting by index must reproduce
// AggregateAll exactly, for any worker count.
func TestAggregateAllStreamMatchesBatch(t *testing.T) {
	offers, gp := streamPopulation(t, 400)
	batch, err := AggregateAll(offers, gp)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		items, n := AggregateGroupsStream(context.Background(), grouping.Group(offers, gp), ParallelParams{Workers: workers})
		if n != len(batch) {
			t.Fatalf("workers=%d: stream count %d, batch %d", workers, n, len(batch))
		}
		var got []StreamItem
		for item := range items {
			if item.Err != nil {
				t.Fatalf("workers=%d: unexpected failure %v", workers, item.Err)
			}
			got = append(got, item)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: delivered %d of %d items", workers, len(got), n)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
		for i, item := range got {
			if item.Index != i {
				t.Fatalf("workers=%d: missing or duplicate index %d", workers, i)
			}
			if !reflect.DeepEqual(item.Agg, batch[i]) {
				t.Fatalf("workers=%d: aggregate %d diverges from batch", workers, i)
			}
		}
	}
}

// TestAggregateAllSafeStreamDisaggregable: the safe group stream over
// the threshold grouping tightens constituents exactly like
// AggregateAllSafe.
func TestAggregateAllSafeStreamDisaggregable(t *testing.T) {
	offers, gp := streamPopulation(t, 120)
	batch, err := AggregateAllSafe(offers, gp)
	if err != nil {
		t.Fatal(err)
	}
	items, n := AggregateGroupsSafeStream(context.Background(), grouping.Group(offers, gp), ParallelParams{Workers: 4})
	got := make([]*Aggregated, n)
	for item := range items {
		if item.Err != nil {
			t.Fatal(item.Err)
		}
		got[item.Index] = item.Agg
	}
	for i, ag := range got {
		if !reflect.DeepEqual(ag, batch[i]) {
			t.Fatalf("safe aggregate %d diverges from batch", i)
		}
	}
}

// TestAggregateAllStreamDeliversFailures: a failing group arrives as a
// StreamItem carrying the same GroupError context as the batch path.
func TestAggregateAllStreamDeliversFailures(t *testing.T) {
	bad := &flexoffer.FlexOffer{ID: "bad", EarliestStart: 5, LatestStart: 1,
		Slices: []flexoffer.Slice{{Min: 0, Max: 1}}}
	groups := [][]*flexoffer.FlexOffer{
		{flexoffer.MustNew(0, 1, flexoffer.Slice{Min: 1, Max: 2})},
		{bad},
	}
	items, n := AggregateGroupsStream(context.Background(), groups, ParallelParams{Workers: 2, ErrorMode: CollectAll})
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	var sawErr *GroupError
	for item := range items {
		if item.Err != nil {
			sawErr = item.Err
		}
	}
	if sawErr == nil {
		t.Fatal("failing group not delivered")
	}
	if sawErr.Group != 1 || sawErr.FirstID != "bad" {
		t.Fatalf("error context = group %d id %q, want group 1 id \"bad\"", sawErr.Group, sawErr.FirstID)
	}
}

func TestAggregateAllStreamCancelledUpFront(t *testing.T) {
	offers, gp := streamPopulation(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, _ := AggregateGroupsStream(ctx, grouping.Group(offers, gp), ParallelParams{Workers: 2})
	count := 0
	for range items {
		count++
	}
	if count != 0 {
		t.Fatalf("cancelled stream still delivered %d items", count)
	}
}

// disaggFixture aggregates a population and instantiates every
// aggregate at its earliest valid assignment, so there are real
// assignments to disaggregate (the scheduler is not involved: aggregate
// cannot import sched, which imports this package).
func disaggFixture(t *testing.T, n int) ([]*Aggregated, []flexoffer.Assignment) {
	t.Helper()
	offers, gp := streamPopulation(t, n)
	// Safe aggregation guarantees every valid aggregate assignment
	// disaggregates, so the fixture can instantiate arbitrarily.
	ags, err := AggregateAllSafe(offers, gp)
	if err != nil {
		t.Fatal(err)
	}
	assignments := make([]flexoffer.Assignment, len(ags))
	for i, ag := range ags {
		a, err := ag.Offer.EarliestAssignment()
		if err != nil {
			t.Fatalf("aggregate %d: %v", i, err)
		}
		assignments[i] = a
	}
	return ags, assignments
}

// TestDisaggregateAllParallelMatchesSerial: the parallel fan-out must
// reproduce serial per-aggregate Disaggregate exactly, for any worker
// count.
func TestDisaggregateAllParallelMatchesSerial(t *testing.T) {
	ags, assignments := disaggFixture(t, 300)
	serial := make([][]flexoffer.Assignment, len(ags))
	for i, ag := range ags {
		parts, err := ag.Disaggregate(assignments[i])
		if err != nil {
			t.Fatalf("serial disaggregation %d: %v", i, err)
		}
		serial[i] = parts
	}
	for _, workers := range []int{1, 2, 8} {
		parallel, err := DisaggregateAllParallel(context.Background(), ags, assignments, ParallelParams{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(parallel, serial) {
			t.Fatalf("workers=%d: parallel disaggregation diverged from serial", workers)
		}
	}
	// Validity and slot-sum preservation.
	for i, parts := range serial {
		var sum timeseries.Series
		for j, p := range parts {
			if err := ags[i].Constituents[j].ValidateAssignment(p); err != nil {
				t.Fatalf("aggregate %d constituent %d: %v", i, j, err)
			}
			sum = timeseries.Add(sum, p.Series())
		}
		if !sum.EquivalentZeroPadded(assignments[i].Series()) {
			t.Fatalf("aggregate %d: disaggregation changed the profile", i)
		}
	}
}

// TestDisaggregateAllParallelReportsFailures: invalid assignments are
// reported as GroupErrors keyed by aggregate index.
func TestDisaggregateAllParallelReportsFailures(t *testing.T) {
	ags, assignments := disaggFixture(t, 60)
	// Corrupt one assignment so it no longer belongs to its aggregate.
	corrupt := make([]flexoffer.Assignment, len(assignments))
	copy(corrupt, assignments)
	corrupt[2] = flexoffer.Assignment{Start: ags[2].Offer.EarliestStart, Values: []int64{}}
	_, err := DisaggregateAllParallel(context.Background(), ags, corrupt, ParallelParams{Workers: 4, ErrorMode: CollectAll})
	var errs GroupErrors
	if !errors.As(err, &errs) {
		t.Fatalf("got %v, want GroupErrors", err)
	}
	if len(errs) != 1 || errs[0].Group != 2 {
		t.Fatalf("errs = %v, want one failure at aggregate 2", errs)
	}
	if !errors.Is(err, ErrNotConstituent) {
		t.Fatalf("underlying error %v does not unwrap to ErrNotConstituent", err)
	}
}

func TestDisaggregateAllParallelLengthMismatch(t *testing.T) {
	ags, assignments := disaggFixture(t, 30)
	if _, err := DisaggregateAllParallel(context.Background(), ags, assignments[:len(assignments)-1], ParallelParams{}); err == nil {
		t.Fatal("length mismatch must error")
	}
}
