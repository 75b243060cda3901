package sched

import (
	"errors"
	"fmt"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

// ErrResultMismatch is returned by Improve when the result does not
// belong to the offers.
var ErrResultMismatch = errors.New("sched: result does not match the offer set")

// Improve refines a schedule by local search: each round removes one
// offer's assignment from the load, re-places that offer optimally
// against the residual target, and keeps the move if it lowers the L1
// imbalance. Rounds repeat until a full sweep makes no improvement or
// maxRounds is reached (0 means until convergence).
//
// Greedy construction commits early offers before it has seen the rest
// of the fleet; re-placement with full knowledge recovers much of that
// gap. Improve runs on the incremental evaluator: lifting an assignment
// out and scoring every candidate start both cost O(profile) in exact
// integer deltas, instead of an O(horizon) series materialization per
// candidate — the same win Schedule got. A move is accepted exactly
// when the removal and placement deltas sum negative: the
// strictly-lower-imbalance criterion the full-recompute test oracle
// evaluates from scratch. The result always remains a valid schedule,
// and the imbalance is non-increasing round over round — properties
// the tests pin down.
func Improve(offers []*flexoffer.FlexOffer, target timeseries.Series, res *Result, maxRounds int) (*Result, error) {
	if res == nil || len(res.Assignments) != len(offers) {
		return nil, ErrResultMismatch
	}
	out := &Result{Assignments: make([]flexoffer.Assignment, len(res.Assignments))}
	for i, a := range res.Assignments {
		out.Assignments[i] = a.Clone()
		if err := offers[i].ValidateAssignment(a); err != nil {
			return nil, fmt.Errorf("%w: assignment %d: %v", ErrResultMismatch, i, err)
		}
	}
	ev := newEvaluator(target, 0)
	ev.reserve(offers)
	// Seed the committed-load range with the input Load's domain so the
	// final snapshot reproduces the oracle's domain even when no move
	// is accepted (the oracle then returns the input Load untouched).
	if !res.Load.IsEmpty() {
		ev.load.Ensure(res.Load.Start, res.Load.End())
		ev.loadLo, ev.loadHi, ev.placedAny = res.Load.Start, res.Load.End(), true
	}
	for _, a := range out.Assignments {
		ev.addValues(a.Start, a.Values)
	}
	if maxRounds <= 0 {
		maxRounds = len(offers) + 1
	}
	for round := 0; round < maxRounds; round++ {
		improved := false
		for i, f := range offers {
			cur := out.Assignments[i]
			dRemove := ev.removeValues(cur.Start, cur.Values)
			start, dPlace, ok := ev.scan(f)
			if !ok {
				// Impossible for a Validate-d offer, but fail rather
				// than corrupt the schedule.
				ev.addValues(cur.Start, cur.Values)
				return nil, fmt.Errorf("sched: re-placing offer %d: %w", i, flexoffer.ErrInfeasibleTotal)
			}
			if dRemove+dPlace < 0 {
				vals := make([]int64, f.NumSlices())
				copy(vals, ev.best)
				ev.addValues(start, vals)
				out.Assignments[i] = flexoffer.Assignment{Start: start, Values: vals}
				improved = true
			} else {
				// The best re-placement does not strictly improve:
				// restore the current assignment.
				ev.addValues(cur.Start, cur.Values)
			}
		}
		if !improved {
			break
		}
	}
	out.Load = ev.loadSeries()
	return out, nil
}
