// Package sched implements flex-offer scheduling, the substrate of the
// paper's Scenario 1 (Section 1): assigning a start time and exact energy
// amounts to every flex-offer so the resulting load follows a target
// profile (e.g. forecast wind production). The flex-offer scheduling
// problem is NP-hard in general (the paper's references [12][13] relate
// it to unit commitment), so this package provides greedy heuristics,
// which is also what the TotalFlex pipeline used in practice.
//
// The scheduler is the *consumer* of flexibility: more flexible offers
// (under any of the paper's measures) give the greedy placement more
// room, which the imbalance metric makes visible — experiment X2
// regenerates that relationship.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/timeseries"
)

// Sentinel errors.
var (
	ErrNoOffers  = errors.New("sched: no offers to schedule")
	ErrNeedsRand = errors.New("sched: OrderRandom requires a rand source")
	// ErrStreamOrder is returned when the Scenario-1 pipeline is asked
	// for a placement order other than OrderArrival. Incremental replay
	// keys each placement to its group's position in grouping order, and
	// the stateless pipeline is its oracle, so both place the aggregates
	// in group order. Rank or shuffle the groups up front and schedule
	// them with Schedule instead.
	ErrStreamOrder = errors.New("sched: the pipeline supports OrderArrival only")
)

// Order selects the order in which the greedy scheduler places offers.
type Order int

const (
	// OrderArrival schedules offers in input order.
	OrderArrival Order = iota
	// OrderLeastFlexibleFirst places the most constrained offers first,
	// leaving flexible offers to fill the remaining valleys — the
	// classic bin-packing style heuristic.
	OrderLeastFlexibleFirst
	// OrderMostFlexibleFirst places the most flexible offers first.
	OrderMostFlexibleFirst
	// OrderRandom shuffles the offers; the baseline for X2.
	OrderRandom
)

// String names the order for reports.
func (o Order) String() string {
	switch o {
	case OrderArrival:
		return "arrival"
	case OrderLeastFlexibleFirst:
		return "least-flexible-first"
	case OrderMostFlexibleFirst:
		return "most-flexible-first"
	case OrderRandom:
		return "random"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Options configures Schedule.
type Options struct {
	// Order selects the placement order (default OrderArrival).
	Order Order
	// Measure ranks offers for the flexibility-aware orders; required
	// for OrderLeastFlexibleFirst and OrderMostFlexibleFirst. The
	// paper's measures plug in directly.
	Measure core.Measure
	// Rand supplies randomness for OrderRandom.
	Rand *rand.Rand
	// PeakCap, when positive, makes the scheduler treat |load| above
	// the cap as prohibitively expensive — the congestion-management
	// use the paper attributes to DSOs ("congestion problems of
	// Distributed System Operators can be handled without costly
	// upgrades of physical grid infrastructures"). The cap is soft:
	// when the fleet's mandatory energy cannot fit under it, the
	// schedule is still produced, with the overage minimised.
	PeakCap int64
}

// Result is a complete schedule: one assignment per offer (by input
// index) and the resulting total load series.
type Result struct {
	// Assignments holds one valid assignment per input offer.
	Assignments []flexoffer.Assignment
	// Load is the slot-wise sum of all assignments.
	Load timeseries.Series
}

// Imbalance returns the L1 distance between the schedule's load and the
// target over the union of their domains: the energy that must be
// balanced by other means (the quantity BRPs pay penalties for,
// Scenario 2).
func (r *Result) Imbalance(target timeseries.Series) float64 {
	return timeseries.Sub(r.Load, target).NormL1()
}

// PeakLoad returns the maximum absolute load of the schedule.
func (r *Result) PeakLoad() int64 {
	var peak int64
	for _, v := range r.Load.Values {
		if v > peak {
			peak = v
		}
		if -v > peak {
			peak = -v
		}
	}
	return peak
}

// Schedule greedily assigns every offer a start time and energy values
// so the total load tracks the target series. For each offer (in the
// configured order) every feasible start time is tried; the values are
// chosen slot-wise to close the gap to the target, the total is repaired
// into [cmin, cmax], and the start with the smallest resulting imbalance
// contribution wins. The returned assignments are always valid for their
// offers.
//
// Candidates are scored by the incremental delta evaluator (see
// incremental.go), which does zero allocations in the candidate loop.
func Schedule(offers []*flexoffer.FlexOffer, target timeseries.Series, opts Options) (*Result, error) {
	if len(offers) == 0 {
		return nil, ErrNoOffers
	}
	order, err := placementOrder(offers, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Assignments: make([]flexoffer.Assignment, len(offers))}
	ev := newEvaluator(target, opts.PeakCap)
	ev.reserve(offers)
	for _, idx := range order {
		a, err := placeOffer(ev, offers[idx], idx)
		if err != nil {
			return nil, err
		}
		res.Assignments[idx] = a
	}
	res.Load = ev.loadSeries()
	return res, nil
}

// placementOrder resolves Options into a permutation of offer indices.
func placementOrder(offers []*flexoffer.FlexOffer, opts Options) ([]int, error) {
	order := make([]int, len(offers))
	for i := range order {
		order[i] = i
	}
	switch opts.Order {
	case OrderArrival:
		return order, nil
	case OrderRandom:
		if opts.Rand == nil {
			return nil, ErrNeedsRand
		}
		opts.Rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order, nil
	case OrderLeastFlexibleFirst, OrderMostFlexibleFirst:
		m := opts.Measure
		if m == nil {
			m = core.VectorMeasure{}
		}
		keys := make([]float64, len(offers))
		for i, f := range offers {
			v, err := m.Value(f)
			if err != nil {
				return nil, fmt.Errorf("sched: ranking offer %d with %s: %w", i, m.Name(), err)
			}
			keys[i] = v
		}
		asc := opts.Order == OrderLeastFlexibleFirst
		sort.SliceStable(order, func(a, b int) bool {
			if asc {
				return keys[order[a]] < keys[order[b]]
			}
			return keys[order[a]] > keys[order[b]]
		})
		return order, nil
	default:
		return nil, fmt.Errorf("sched: unknown order %d", int(opts.Order))
	}
}

// betterCost ranks candidate costs: less overage wins outright (the cap
// is "prohibitively expensive"), imbalance breaks ties. Strict
// comparison, so among equals the earliest-scanned start wins — the
// tie-break both evaluators share.
func betterCost(over, abs, bestOver, bestAbs int64) bool {
	if over != bestOver {
		return over < bestOver
	}
	return abs < bestAbs
}

// repairTotal nudges vals — already clamped into their slice ranges — so
// the total lands in [totalMin, totalMax], and reports whether it could
// (false only when the slice ranges themselves cannot reach the band,
// which cannot happen for a Validate-d offer).
//
// Both passes are headroom-greedy water-fills: the raise pass always
// adds energy to the slots with the most remaining headroom (slice max
// minus current value), lowering the largest headrooms level by level,
// and the lower pass symmetrically drains the slots with the most spare
// above their slice minima. Compared to the previous index-order repair
// — which filled slot 0 to its maximum before touching slot 1, piling
// the repaired energy onto the front of the profile — water-filling
// spreads the repair across the profile, so repaired totals sit closer
// to the slot-wise target shape and contribute smaller peaks.
//
// Determinism guarantee: the result is a pure function of (vals, slices,
// totalMin, totalMax). Each round computes the current headroom level
// from the values alone and distributes the remainder in ascending slot
// order, so equal inputs — regardless of scheduling order, worker count
// or previous calls — produce identical outputs. The scheduler's
// equivalence and incremental replay tests rely on this.
func repairTotal(vals []int64, slices []flexoffer.Slice, totalMin, totalMax int64) bool {
	var total int64
	for _, v := range vals {
		total += v
	}
	if total < totalMin {
		return waterFill(vals, slices, totalMin-total, +1)
	}
	if total > totalMax {
		return waterFill(vals, slices, total-totalMax, -1)
	}
	return true
}

// waterFill moves amount units of energy into (dir=+1) or out of
// (dir=−1) vals by repeatedly leveling the slots with the most headroom
// — slice max minus value when raising, value minus slice min when
// lowering — down to the runner-up headroom, then spreading the
// remainder evenly in ascending slot order. One function serves both
// directions so the passes cannot drift apart; it takes a sign instead
// of accessor closures so the per-candidate hot path stays
// allocation-free.
func waterFill(vals []int64, slices []flexoffer.Slice, amount int64, dir int64) bool {
	headroom := func(i int) int64 {
		if dir > 0 {
			return slices[i].Max - vals[i]
		}
		return vals[i] - slices[i].Min
	}
	for amount > 0 {
		// Find the largest headroom, how many slots sit at it, and the
		// runner-up level to drop them to.
		maxH, second := int64(-1), int64(-1)
		n := int64(0)
		for i := range slices {
			h := headroom(i)
			switch {
			case h > maxH:
				second = maxH
				maxH = h
				n = 1
			case h == maxH:
				n++
			case h > second:
				second = h
			}
		}
		if maxH <= 0 {
			return false
		}
		if second < 0 {
			second = 0
		}
		step := maxH - second // ≥ 1: second is always strictly below maxH
		if capacity := n * step; capacity < amount {
			// Drop every maximal slot to the runner-up level and repeat.
			for i := range slices {
				if headroom(i) == maxH {
					vals[i] += dir * step
				}
			}
			amount -= capacity
			continue
		}
		// The maximal slots can absorb the rest; spread it evenly with
		// the remainder going to the lowest-indexed slots.
		q, rem := amount/n, amount%n
		for i := range slices {
			if headroom(i) != maxH {
				continue
			}
			d := q
			if rem > 0 {
				d++
				rem--
			}
			vals[i] += dir * d
		}
		return true
	}
	return true
}
