package aggregate

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

// disaggFixture aggregates a population and instantiates every
// aggregate at its earliest valid assignment, so there are real
// assignments to disaggregate (the scheduler is not involved: aggregate
// cannot import sched, which imports this package).
func disaggFixture(t *testing.T, n int) ([]*Aggregated, []flexoffer.Assignment) {
	t.Helper()
	offers := randomOffers(t, 5150, n)
	gp := GroupParams{ESTTolerance: 3, TFTolerance: -1, MaxGroupSize: 24}
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
