package sched

import (
	"fmt"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

// This file implements the candidate evaluator behind Schedule and
// Improve. A full-recompute evaluator — the test oracle placeOneCapped
// in oracle_test.go — materializes two full-horizon series and an
// O(horizon) norm for every candidate start of every offer; for a
// fleet of n offers with w-wide start windows over an h-slot horizon
// that is O(n·w·h) slot reads and one heap allocation per candidate. Only the offer's own k slots ever
// change between candidates, so the evaluator below keeps the running
//
//	residual = load − target
//
// in a timeseries.Accumulator and scores a candidate start s as
//
//	Δcost(s) = Σ_{i<k} |residual(s+i)+v(i)| − |residual(s+i)|
//
// plus the same O(k) delta for the peak-cap overage term on a second
// load accumulator. The base terms Σ|residual| and Σ overage(load) are
// constant across the candidates of one offer, and both evaluators rank
// candidates by the exact integer pair (overage, imbalance) with the
// same betterCost comparison, so comparing deltas orders candidates
// exactly as the oracle's full costs do — at every magnitude, with no
// floating-point rounding anywhere. Candidate values are staged
// in reusable scratch buffers, making the evaluation loop
// allocation-free — the property BenchmarkPlaceIncremental and
// TestPlaceCandidateLoopZeroAllocs pin down.
type evaluator struct {
	// residual accumulates load − target; load accumulates load alone
	// (needed only for the peak-cap overage term, but kept in sync
	// unconditionally — it is O(k) per placement either way).
	residual *timeseries.Accumulator
	load     *timeseries.Accumulator
	// cap is the soft peak cap (0: uncapped), weighted exactly like the
	// full-recompute oracle so the two rank candidates identically.
	cap int64
	// scratch stages the candidate values of the start being scored;
	// best holds the winning candidate's values.
	scratch []int64
	best    []int64
	// loadLo/loadHi track the union range of committed assignments, so
	// loadSeries can reproduce the oracle's Result.Load exactly (its
	// range is the union of the assignment ranges, not the target's).
	loadLo, loadHi int
	placedAny      bool
}

// newEvaluator starts an evaluator against the target: the residual
// begins at −target (no load placed yet).
func newEvaluator(target timeseries.Series, cap int64) *evaluator {
	ev := &evaluator{
		residual: timeseries.NewAccumulator(),
		load:     timeseries.NewAccumulator(),
		cap:      cap,
	}
	ev.residual.AddScaled(target, -1)
	ev.load.Ensure(target.Start, target.End())
	return ev
}

// reserve pre-sizes the window and scratch buffers for the offers, so
// placing them triggers no further growth. It only saves growth: an
// evaluator that was not reserved grows its buffers amortized between
// offers (never inside the candidate loop) and places identically.
func (ev *evaluator) reserve(offers []*flexoffer.FlexOffer) {
	maxK := 0
	for _, f := range offers {
		if f == nil {
			continue
		}
		ev.residual.Ensure(f.EarliestStart, f.LatestEnd())
		ev.load.Ensure(f.EarliestStart, f.LatestEnd())
		if k := f.NumSlices(); k > maxK {
			maxK = k
		}
	}
	ev.ensureSlices(maxK)
}

// ensureSlices grows the per-candidate scratch buffers to hold k values.
func (ev *evaluator) ensureSlices(k int) {
	if cap(ev.scratch) < k {
		ev.scratch = make([]int64, k)
		ev.best = make([]int64, k)
	}
}

// place finds the best start for f against the current residual, commits
// the winning assignment into the running buffers and returns its start.
// The winning values are left in ev.best[:f.NumSlices()] for the caller
// to copy out. ok is false when no feasible candidate exists (impossible
// for a Validate-d offer). place performs zero allocations once the
// window and scratch buffers cover the offer.
func (ev *evaluator) place(f *flexoffer.FlexOffer) (start int, ok bool) {
	start, _, ok = ev.scan(f)
	if ok {
		ev.addValues(start, ev.best[:f.NumSlices()])
	}
	return start, ok
}

// scan finds the best start for f against the current residual without
// committing anything: the winning values are staged in ev.best and
// dAbs is the winner's imbalance delta Σ |r+v| − |r| over its own
// slots, which the local-search Improve compares against the delta of
// removing an existing assignment. The peak-cap overage delta ranks
// candidates inside the scan but is not returned — scan's only
// cap-aware caller (place) commits the winner unconditionally. ok is
// false when no feasible candidate exists.
func (ev *evaluator) scan(f *flexoffer.FlexOffer) (start int, dAbs int64, ok bool) {
	k := f.NumSlices()
	ev.residual.Ensure(f.EarliestStart, f.LatestEnd())
	ev.load.Ensure(f.EarliestStart, f.LatestEnd())
	ev.ensureSlices(k)

	bestStart, found := 0, false
	var bestAbs, bestOver int64
	for s := f.EarliestStart; s <= f.LatestStart; s++ {
		res := ev.residual.Values(s, s+k)
		if !fitInto(f, res, ev.scratch[:k]) {
			continue
		}
		var cAbs int64
		for i, v := range ev.scratch[:k] {
			r := res[i]
			cAbs += abs64(r+v) - abs64(r)
		}
		var cOver int64
		if ev.cap > 0 {
			ld := ev.load.Values(s, s+k)
			for i, v := range ev.scratch[:k] {
				cOver += over64(ld[i]+v, ev.cap) - over64(ld[i], ev.cap)
			}
		}
		// The deltas can be negative (placing may reduce the residual);
		// betterCost only needs the ordering, which the constant base
		// terms cannot change.
		if !found || betterCost(cOver, cAbs, bestOver, bestAbs) {
			found, bestStart, bestAbs, bestOver = true, s, cAbs, cOver
			copy(ev.best[:k], ev.scratch[:k])
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestStart, bestAbs, true
}

// addValues folds vals into the running buffers starting at start,
// growing the committed-load range, and returns the imbalance delta
// Σ |r+v| − |r| the fold caused. It is both place's commit step and
// Improve's restore step.
func (ev *evaluator) addValues(start int, vals []int64) (dAbs int64) {
	if len(vals) == 0 {
		return 0
	}
	res := ev.residual.Values(start, start+len(vals))
	ld := ev.load.Values(start, start+len(vals))
	for i, v := range vals {
		dAbs += abs64(res[i]+v) - abs64(res[i])
		res[i] += v
		ld[i] += v
	}
	if !ev.placedAny || start < ev.loadLo {
		ev.loadLo = start
	}
	if !ev.placedAny || start+len(vals) > ev.loadHi {
		ev.loadHi = start + len(vals)
	}
	ev.placedAny = true
	return dAbs
}

// removeValues subtracts vals from the running buffers starting at
// start — Improve's "lift one assignment out of the load" step — and
// returns the imbalance delta Σ |r−v| − |r| of the removal. The
// committed-load range never shrinks, matching the oracle, whose
// series domains only ever grow.
func (ev *evaluator) removeValues(start int, vals []int64) (dAbs int64) {
	if len(vals) == 0 {
		return 0
	}
	res := ev.residual.Values(start, start+len(vals))
	ld := ev.load.Values(start, start+len(vals))
	for i, v := range vals {
		dAbs += abs64(res[i]-v) - abs64(res[i])
		res[i] -= v
		ld[i] -= v
	}
	return dAbs
}

// placeOffer validates f, places it through the evaluator and
// materializes the winning assignment — the shared per-offer step of
// Schedule and the incremental replay, so the batch and replayed paths
// cannot drift apart. idx only labels errors.
func placeOffer(ev *evaluator, f *flexoffer.FlexOffer, idx int) (flexoffer.Assignment, error) {
	if err := f.Validate(); err != nil {
		return flexoffer.Assignment{}, fmt.Errorf("sched: offer %d: %w", idx, err)
	}
	start, ok := ev.place(f)
	if !ok {
		return flexoffer.Assignment{}, fmt.Errorf("sched: offer %d: %w", idx, flexoffer.ErrInfeasibleTotal)
	}
	vals := make([]int64, f.NumSlices())
	copy(vals, ev.best)
	return flexoffer.Assignment{Start: start, Values: vals}, nil
}

// loadSeries snapshots the committed load over the union range of the
// placed assignments — exactly the series the oracle builds by
// folding assignment series with timeseries.Add.
func (ev *evaluator) loadSeries() timeseries.Series {
	if !ev.placedAny {
		return timeseries.Series{}
	}
	return ev.load.Snapshot(ev.loadLo, ev.loadHi)
}

// fitInto chooses the candidate values at one start: it writes the
// candidate values for the offer into vals (len == NumSlices), reading
// the gap to the target from the residual cells (want = −residual), and
// repairs the total into [cmin, cmax]. It reports whether the candidate
// is feasible. The full-recompute oracle wraps it too, so the two
// evaluators choose identical values by construction.
func fitInto(f *flexoffer.FlexOffer, residual, vals []int64) bool {
	for i, s := range f.Slices {
		v := -residual[i] // want = target − load
		if v < s.Min {
			v = s.Min
		}
		if v > s.Max {
			v = s.Max
		}
		vals[i] = v
	}
	return repairTotal(vals, f.Slices, f.TotalMin, f.TotalMax)
}

// abs64 is |v| for int64 (math.Abs forces a float round-trip).
func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// over64 is the overage of |v| above the cap, 0 when under it.
func over64(v, cap int64) int64 {
	if v < 0 {
		v = -v
	}
	if v > cap {
		return v - cap
	}
	return 0
}
