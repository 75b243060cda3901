package sched

import (
	"fmt"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

// This file is the full-recompute scheduling evaluator, kept only as
// the equivalence oracle for the incremental evaluator (incremental.go):
// it scores every candidate start from fully materialized load and
// difference series, the O(horizon)-per-candidate definition the
// incremental deltas must reproduce. TestIncrementalMatchesLegacy* and
// TestPropertyImproveIncrementalEquivalence compare the two bit for
// bit; BenchmarkSchedule1000/legacy and BenchmarkImprove200Legacy time
// it.

// scheduleFullRecompute is Schedule with the full-recompute candidate
// evaluator: every candidate evaluation materializes the would-be load
// and its difference to the target.
func scheduleFullRecompute(offers []*flexoffer.FlexOffer, target timeseries.Series, opts Options) (*Result, error) {
	if len(offers) == 0 {
		return nil, ErrNoOffers
	}
	order, err := placementOrder(offers, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Assignments: make([]flexoffer.Assignment, len(offers))}
	load := timeseries.Series{}
	for _, idx := range order {
		f := offers[idx]
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("sched: offer %d: %w", idx, err)
		}
		best, err := placeOneCapped(f, load, target, opts.PeakCap)
		if err != nil {
			return nil, fmt.Errorf("sched: offer %d: %w", idx, err)
		}
		res.Assignments[idx] = best
		load = timeseries.Add(load, best.Series())
	}
	res.Load = load
	return res, nil
}

// placeOne finds the best assignment of f given the current load.
func placeOne(f *flexoffer.FlexOffer, load, target timeseries.Series) (flexoffer.Assignment, error) {
	return placeOneCapped(f, load, target, 0)
}

// placeOneCapped is placeOne with a soft peak cap: any amount of |load|
// above the cap outranks any amount of imbalance, so capped placements
// are preferred whenever one exists. Candidates are compared by the
// exact integer pair (overage, imbalance) — lexicographically, via
// betterCost — rather than a float-weighted sum, so the ranking is
// identical to the incremental evaluator's delta ranking at every
// magnitude (float64 summation would lose low-order bits past 2^53).
func placeOneCapped(f *flexoffer.FlexOffer, load, target timeseries.Series, cap int64) (flexoffer.Assignment, error) {
	var best flexoffer.Assignment
	var bestAbs, bestOver int64
	found := false
	for start := f.EarliestStart; start <= f.LatestStart; start++ {
		a, err := fitValues(f, start, load, target)
		if err != nil {
			continue
		}
		after := timeseries.Add(load, a.Series())
		costAbs := normL1Int(timeseries.Sub(after, target))
		var costOver int64
		if cap > 0 {
			costOver = overage(after, cap)
		}
		if !found || betterCost(costOver, costAbs, bestOver, bestAbs) {
			best, bestAbs, bestOver, found = a, costAbs, costOver, true
		}
	}
	if !found {
		return flexoffer.Assignment{}, flexoffer.ErrInfeasibleTotal
	}
	return best, nil
}

// normL1Int is the L1 norm in exact integer arithmetic.
func normL1Int(s timeseries.Series) int64 {
	var sum int64
	for _, v := range s.Values {
		if v < 0 {
			v = -v
		}
		sum += v
	}
	return sum
}

// overage sums |load| above the cap across all slots.
func overage(load timeseries.Series, cap int64) int64 {
	var over int64
	for _, v := range load.Values {
		if v < 0 {
			v = -v
		}
		if v > cap {
			over += v - cap
		}
	}
	return over
}

// fitValues chooses slice values at the given start that close the gap
// to the target, then repairs the total into [cmin, cmax] by moving the
// value set as little as possible. It wraps fitInto (incremental.go),
// so both evaluators choose identical values.
func fitValues(f *flexoffer.FlexOffer, start int, load, target timeseries.Series) (flexoffer.Assignment, error) {
	a := flexoffer.Assignment{Start: start, Values: make([]int64, f.NumSlices())}
	residual := make([]int64, f.NumSlices())
	for i := range residual {
		t := start + i
		residual[i] = load.At(t) - target.At(t)
	}
	if !fitInto(f, residual, a.Values) {
		return flexoffer.Assignment{}, flexoffer.ErrInfeasibleTotal
	}
	if err := f.ValidateAssignment(a); err != nil {
		return flexoffer.Assignment{}, err
	}
	return a, nil
}

// improveFullRecompute is Improve's full-recompute local search: every
// re-placement materializes the residual and candidate load series and
// compares full float64 L1 norms. BenchmarkImprove200Legacy times it.
func improveFullRecompute(offers []*flexoffer.FlexOffer, target timeseries.Series, res *Result, maxRounds int) (*Result, error) {
	if res == nil || len(res.Assignments) != len(offers) {
		return nil, ErrResultMismatch
	}
	out := &Result{
		Assignments: make([]flexoffer.Assignment, len(res.Assignments)),
		Load:        res.Load.Clone(),
	}
	for i, a := range res.Assignments {
		out.Assignments[i] = a.Clone()
		if err := offers[i].ValidateAssignment(a); err != nil {
			return nil, fmt.Errorf("%w: assignment %d: %v", ErrResultMismatch, i, err)
		}
	}
	if maxRounds <= 0 {
		maxRounds = len(offers) + 1
	}
	for round := 0; round < maxRounds; round++ {
		improved := false
		for i, f := range offers {
			current := out.Assignments[i]
			residual := timeseries.Sub(out.Load, current.Series())
			replacement, err := placeOne(f, residual, target)
			if err != nil {
				return nil, fmt.Errorf("sched: re-placing offer %d: %w", i, err)
			}
			before := timeseries.Sub(out.Load, target).NormL1()
			newLoad := timeseries.Add(residual, replacement.Series())
			after := timeseries.Sub(newLoad, target).NormL1()
			if after < before {
				out.Assignments[i] = replacement
				out.Load = newLoad
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return out, nil
}
