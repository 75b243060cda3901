package sched

import (
	"context"
	"errors"
	"fmt"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/timeseries"
)

// Streaming sentinel errors.
var (
	// ErrStreamOrder is returned when ScheduleStream is asked for a
	// placement order other than OrderArrival: the flexibility-ranked
	// and random orders need the whole batch before the first placement,
	// which defeats streaming. Rank or shuffle the groups up front and
	// stream them in that order instead.
	ErrStreamOrder = errors.New("sched: streaming schedule supports OrderArrival only")
	// ErrStreamShort is returned when the aggregate channel closes
	// before delivering every expected group.
	ErrStreamShort = errors.New("sched: aggregate stream ended before delivering all groups")
	// ErrStreamIndex is returned for out-of-range or duplicate group
	// indices on the stream.
	ErrStreamIndex = errors.New("sched: invalid aggregate stream index")
)

// StreamResult couples the schedule of a streamed aggregate batch with
// the aggregates themselves: Assignments[i] instantiates
// Aggregates[i].Offer, which is what disaggregation needs next.
type StreamResult struct {
	Result
	// Aggregates holds the streamed aggregates in group order.
	Aggregates []*aggregate.Aggregated
}

// ScheduleStream consumes aggregates from items as the aggregation
// workers produce them (see aggregate.AggregateGroupsStream) and greedily
// places each one exactly as Schedule would place the materialized
// batch in arrival order: items arriving out of group order are parked
// until their index is next, so the resulting schedule — assignments
// and load series — is identical to
//
//	Schedule(offersOf(aggregates), target, opts)
//
// for every worker count and completion order (the streaming
// equivalence test pins this), while aggregation CPU overlaps placement
// instead of serializing behind a fully materialized []*Aggregated.
// n is the expected number of groups, as returned by the stream
// constructor.
//
// A failed group (StreamItem.Err) aborts the schedule deterministically:
// failures are parked like aggregates, and the one that aborts is the
// lowest-indexed failing group in placement order — every group before
// it was placed, matching what the materialized batch path would have
// reached — regardless of the completion order the workers happened to
// produce. On early return the caller should cancel the ctx it passed
// to the producer so the remaining aggregation workers stop.
func ScheduleStream(ctx context.Context, items <-chan aggregate.StreamItem, n int, target timeseries.Series, opts Options) (*StreamResult, error) {
	if opts.Order != OrderArrival {
		return nil, ErrStreamOrder
	}
	if n <= 0 {
		return nil, ErrNoOffers
	}
	// The schedule span covers placement including the time spent
	// waiting on the aggregate stream — that wait is the serial
	// fraction the ROADMAP's scaling work wants visible.
	_, sp := obs.Start(ctx, obs.StageSchedule)
	defer sp.End()
	sr := &StreamResult{
		Result:     Result{Assignments: make([]flexoffer.Assignment, n)},
		Aggregates: make([]*aggregate.Aggregated, n),
	}
	ev := newEvaluator(target, opts.PeakCap)
	parked := make([]*aggregate.Aggregated, n)
	failures := make([]*aggregate.GroupError, n)
	seen := make([]bool, n)
	next := 0
	received := 0
	// firstFailure returns the lowest-indexed parked failure, if any.
	firstFailure := func() *aggregate.GroupError {
		for _, ge := range failures {
			if ge != nil {
				return ge
			}
		}
		return nil
	}
	for next < n {
		var item aggregate.StreamItem
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case got, ok := <-items:
			if !ok {
				// A FirstError producer stops claiming groups after a
				// failure, so the stream can close without delivering
				// every index; the parked failure is the real cause.
				if ge := firstFailure(); ge != nil {
					return nil, ge
				}
				return nil, fmt.Errorf("%w: got %d of %d", ErrStreamShort, received, n)
			}
			item = got
		}
		if item.Index < 0 || item.Index >= n || seen[item.Index] {
			return nil, fmt.Errorf("%w: %d (expecting %d groups)", ErrStreamIndex, item.Index, n)
		}
		seen[item.Index] = true
		parked[item.Index] = item.Agg
		failures[item.Index] = item.Err
		received++
		// Drain the contiguous prefix that is now ready. Group next can
		// be placed while groups > next are still aggregating; a parked
		// failure at next aborts, deterministically the lowest-indexed.
		for next < n && (parked[next] != nil || failures[next] != nil) {
			if failures[next] != nil {
				return nil, failures[next]
			}
			a, err := placeOffer(ev, parked[next].Offer, next)
			if err != nil {
				return nil, err
			}
			sr.Assignments[next] = a
			sr.Aggregates[next] = parked[next]
			parked[next] = nil
			next++
		}
	}
	sr.Load = ev.loadSeries()
	return sr, nil
}
