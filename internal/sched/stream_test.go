package sched

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/timeseries"
	"flexmeasures/internal/workload"
)

func streamFixture(t *testing.T, n int) ([]*flexoffer.FlexOffer, timeseries.Series, aggregate.GroupParams) {
	t.Helper()
	r := rand.New(rand.NewSource(4242))
	offers, err := workload.Population(r, n, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	var expected int64
	for _, f := range offers {
		expected += (f.TotalMin + f.TotalMax) / 2
	}
	horizon := 3 * workload.SlotsPerDay
	target := workload.WindProfile(r, horizon, expected/int64(horizon))
	return offers, target, aggregate.GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 16}
}

// TestScheduleStreamMatchesBatch is the satellite equivalence test: the
// streaming pipeline must produce exactly the schedule of the
// materialized batch path, for several worker counts (and therefore
// arbitrary completion orders).
func TestScheduleStreamMatchesBatch(t *testing.T) {
	offers, target, gp := streamFixture(t, 300)

	ags, err := aggregate.AggregateAll(offers, gp)
	if err != nil {
		t.Fatal(err)
	}
	aggOffers := make([]*flexoffer.FlexOffer, len(ags))
	for i, ag := range ags {
		aggOffers[i] = ag.Offer
	}
	batch, err := Schedule(aggOffers, target, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		items, n := aggregate.AggregateGroupsStream(context.Background(), grouping.Group(offers, gp), aggregate.ParallelParams{Workers: workers})
		if n != len(ags) {
			t.Fatalf("workers=%d: stream expects %d groups, batch made %d", workers, n, len(ags))
		}
		sr, err := ScheduleStream(context.Background(), items, n, target, Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(sr.Assignments, batch.Assignments) {
			t.Fatalf("workers=%d: streamed assignments diverge from batch", workers)
		}
		if !sr.Load.Equal(batch.Load) {
			t.Fatalf("workers=%d: streamed load diverges from batch", workers)
		}
		for i, ag := range sr.Aggregates {
			if !ag.Offer.Equal(ags[i].Offer) {
				t.Fatalf("workers=%d: streamed aggregate %d differs", workers, i)
			}
		}
	}
}

func TestScheduleStreamRejectsNonArrivalOrder(t *testing.T) {
	ch := make(chan aggregate.StreamItem)
	_, err := ScheduleStream(context.Background(), ch, 1, timeseries.Series{}, Options{Order: OrderRandom})
	if !errors.Is(err, ErrStreamOrder) {
		t.Fatalf("got %v, want ErrStreamOrder", err)
	}
}

func TestScheduleStreamNoGroups(t *testing.T) {
	ch := make(chan aggregate.StreamItem)
	close(ch)
	if _, err := ScheduleStream(context.Background(), ch, 0, timeseries.Series{}, Options{}); !errors.Is(err, ErrNoOffers) {
		t.Fatalf("got %v, want ErrNoOffers", err)
	}
}

func TestScheduleStreamPropagatesGroupError(t *testing.T) {
	ch := make(chan aggregate.StreamItem, 1)
	ge := &aggregate.GroupError{Group: 0, Size: 2, Err: errors.New("boom")}
	ch <- aggregate.StreamItem{Index: 0, Err: ge}
	_, err := ScheduleStream(context.Background(), ch, 1, timeseries.Series{}, Options{})
	var got *aggregate.GroupError
	if !errors.As(err, &got) || got != ge {
		t.Fatalf("got %v, want the stream's GroupError", err)
	}
}

// TestScheduleStreamFailsAtLowestIndex: with several failing groups the
// abort is deterministic — the lowest-indexed failure in placement
// order wins, regardless of the completion order the workers produced.
func TestScheduleStreamFailsAtLowestIndex(t *testing.T) {
	geA := &aggregate.GroupError{Group: 0, Size: 1, Err: errors.New("a")}
	geB := &aggregate.GroupError{Group: 1, Size: 1, Err: errors.New("b")}
	ch := make(chan aggregate.StreamItem, 2)
	ch <- aggregate.StreamItem{Index: 1, Err: geB} // delivered first...
	ch <- aggregate.StreamItem{Index: 0, Err: geA} // ...but index 0 must win
	_, err := ScheduleStream(context.Background(), ch, 2, timeseries.Series{}, Options{})
	var got *aggregate.GroupError
	if !errors.As(err, &got) || got != geA {
		t.Fatalf("got %v, want the lowest-indexed GroupError", err)
	}
}

// TestScheduleStreamClosedAfterFailure: a FirstError producer stops
// claiming groups after a failure, so the channel closes short; the
// parked failure — not ErrStreamShort — must surface.
func TestScheduleStreamClosedAfterFailure(t *testing.T) {
	ge := &aggregate.GroupError{Group: 1, Size: 1, Err: errors.New("boom")}
	ch := make(chan aggregate.StreamItem, 1)
	ch <- aggregate.StreamItem{Index: 1, Err: ge}
	close(ch)
	_, err := ScheduleStream(context.Background(), ch, 3, timeseries.Series{}, Options{})
	var got *aggregate.GroupError
	if !errors.As(err, &got) || got != ge {
		t.Fatalf("got %v, want the parked GroupError", err)
	}
}

func TestScheduleStreamShortStream(t *testing.T) {
	ch := make(chan aggregate.StreamItem, 1)
	ag, err := aggregate.Aggregate([]*flexoffer.FlexOffer{flexoffer.MustNew(0, 2, sl(1, 2))})
	if err != nil {
		t.Fatal(err)
	}
	ch <- aggregate.StreamItem{Index: 0, Agg: ag}
	close(ch)
	if _, err := ScheduleStream(context.Background(), ch, 3, timeseries.Series{}, Options{}); !errors.Is(err, ErrStreamShort) {
		t.Fatalf("got %v, want ErrStreamShort", err)
	}
}

func TestScheduleStreamBadIndex(t *testing.T) {
	ag, err := aggregate.Aggregate([]*flexoffer.FlexOffer{flexoffer.MustNew(0, 2, sl(1, 2))})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, 2} {
		ch := make(chan aggregate.StreamItem, 1)
		ch <- aggregate.StreamItem{Index: idx, Agg: ag}
		if _, err := ScheduleStream(context.Background(), ch, 2, timeseries.Series{}, Options{}); !errors.Is(err, ErrStreamIndex) {
			t.Fatalf("index %d: got %v, want ErrStreamIndex", idx, err)
		}
	}
	// Duplicate index.
	ch := make(chan aggregate.StreamItem, 2)
	ch <- aggregate.StreamItem{Index: 1, Agg: ag}
	ch <- aggregate.StreamItem{Index: 1, Agg: ag}
	if _, err := ScheduleStream(context.Background(), ch, 2, timeseries.Series{}, Options{}); !errors.Is(err, ErrStreamIndex) {
		t.Fatalf("duplicate: got %v, want ErrStreamIndex", err)
	}
}

func TestScheduleStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch := make(chan aggregate.StreamItem) // never delivers
	if _, err := ScheduleStream(ctx, ch, 1, timeseries.Series{}, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
