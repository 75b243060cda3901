package aggregate

import (
	"fmt"

	"flexmeasures/internal/flexoffer"
)

// This file keeps the copying aggregation the package shipped before
// its aggregates became copy-free: every constituent deep-copied (and,
// for safe aggregation, tightened) into Constituents, and
// disaggregation reading bounds and totals through those copies. It is
// the oracle the slab-based aggregation and disaggregation are pinned
// against (TestAggregateMatchesCopyOracle, FuzzAggregateDisaggregate).

// oracleAggregated is the copying path's aggregate: Constituents are
// copies the aggregate owns.
type oracleAggregated struct {
	Offer        *flexoffer.FlexOffer
	Constituents []*flexoffer.FlexOffer
	anchors      []int
}

// oracleAggregateAligned is the copying AggregateAligned: the group is
// validated, then aggregated over per-offer Clones.
func oracleAggregateAligned(group []*flexoffer.FlexOffer, al Alignment) (*oracleAggregated, error) {
	if err := validateGroup(group); err != nil {
		return nil, err
	}
	copies := make([]*flexoffer.FlexOffer, len(group))
	for i, f := range group {
		copies[i] = f.Clone()
	}
	return oracleAggregateOwned(copies, al)
}

// validateGroup checks that the group is non-empty and that every
// constituent is a valid flex-offer.
func validateGroup(group []*flexoffer.FlexOffer) error {
	if len(group) == 0 {
		return ErrEmptyGroup
	}
	for i, f := range group {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("aggregate: constituent %d: %w", i, err)
		}
	}
	return nil
}

// oracleAggregateSafe is the copying AggregateSafe: every constituent
// is replaced by its TightenTotals copy, which is validated and
// aggregated.
func oracleAggregateSafe(group []*flexoffer.FlexOffer) (*oracleAggregated, error) {
	for i, f := range group {
		if f == nil {
			return nil, fmt.Errorf("aggregate: constituent %d: %w", i, flexoffer.ErrNilOffer)
		}
	}
	tightened := make([]*flexoffer.FlexOffer, len(group))
	for i, f := range group {
		tightened[i] = f.TightenTotals()
	}
	if err := validateGroup(tightened); err != nil {
		return nil, err
	}
	return oracleAggregateOwned(tightened, AlignEarliest)
}

// oracleAggregateOwned combines a validated, non-empty group under al. The
// group becomes the aggregate's Constituents as is, so the caller
// hands over copies it owns.
func oracleAggregateOwned(group []*flexoffer.FlexOffer, al Alignment) (*oracleAggregated, error) {
	minTF := group[0].TimeFlexibility()
	for _, f := range group[1:] {
		if tf := f.TimeFlexibility(); tf < minTF {
			minTF = tf
		}
	}
	anchors := make([]int, len(group))
	for i, f := range group {
		switch al {
		case AlignLatest:
			anchors[i] = f.LatestStart - minTF
		case AlignEarliest:
			anchors[i] = f.EarliestStart
		default:
			return nil, fmt.Errorf("aggregate: unknown alignment %d", int(al))
		}
	}
	base := anchors[0]
	end := anchors[0] + group[0].NumSlices()
	for i, f := range group {
		if anchors[i] < base {
			base = anchors[i]
		}
		if e := anchors[i] + f.NumSlices(); e > end {
			end = e
		}
	}
	slices := make([]flexoffer.Slice, end-base)
	var totalMin, totalMax int64
	for gi, f := range group {
		for i, s := range f.Slices {
			j := anchors[gi] - base + i
			slices[j].Min += s.Min
			slices[j].Max += s.Max
		}
		totalMin += f.TotalMin
		totalMax += f.TotalMax
	}
	agg := &flexoffer.FlexOffer{
		EarliestStart: base,
		LatestStart:   base + minTF,
		Slices:        slices,
		TotalMin:      totalMin,
		TotalMax:      totalMax,
	}
	if err := agg.Validate(); err != nil {
		return nil, fmt.Errorf("aggregate: building aggregate: %w", err)
	}
	agg.ID = fmt.Sprintf("agg(%d)", len(group))
	return &oracleAggregated{Offer: agg, Constituents: group, anchors: anchors}, nil
}

// Disaggregate maps a valid assignment of the aggregate flex-offer back
// to one valid assignment per constituent, preserving the slot-wise sum:
// at every time unit the constituent energies add up to the aggregate's
// energy, so a balanced aggregate schedule stays balanced after
// disaggregation.
//
// The common shift δ = a.Start − tes(aggregate) is applied to every
// constituent. Energy is distributed per slot by water-filling above the
// slice minima, followed by a repair pass that moves energy between
// constituents sharing a slot until every constituent's total constraint
// holds. Repair failure (possible only for adversarial total constraints
// needing multi-hop transfers) is reported as ErrRepairInfeasible.
func (ag *oracleAggregated) Disaggregate(a flexoffer.Assignment) ([]flexoffer.Assignment, error) {
	if err := ag.Offer.ValidateAssignment(a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotConstituent, err)
	}
	delta := a.Start - ag.Offer.EarliestStart
	// Every constituent's Values is a capacity-capped view of one slab.
	n := 0
	for _, f := range ag.Constituents {
		n += f.NumSlices()
	}
	slab := make([]int64, n)
	out := make([]flexoffer.Assignment, len(ag.Constituents))
	for i, f := range ag.Constituents {
		k := f.NumSlices()
		out[i] = flexoffer.Assignment{Start: ag.anchor(i) + delta, Values: slab[:k:k]}
		slab = slab[k:]
	}
	// Per-slot distribution: minima first, then water-fill the surplus
	// left to right.
	type part struct {
		offer int
		slice int
	}
	parts := make([]part, 0, len(ag.Constituents))
	for slot := 0; slot < len(a.Values); slot++ {
		abs := a.Start + slot
		remaining := a.Values[slot]
		parts = parts[:0]
		for i, f := range ag.Constituents {
			j := abs - out[i].Start
			if j >= 0 && j < f.NumSlices() {
				parts = append(parts, part{offer: i, slice: j})
				out[i].Values[j] = f.Slices[j].Min
				remaining -= f.Slices[j].Min
			}
		}
		for _, p := range parts {
			if remaining <= 0 {
				break
			}
			room := ag.Constituents[p.offer].Slices[p.slice].Max - out[p.offer].Values[p.slice]
			if room > remaining {
				room = remaining
			}
			out[p.offer].Values[p.slice] += room
			remaining -= room
		}
		if remaining != 0 {
			// Cannot happen for an assignment valid against the
			// aggregate's summed slice bounds.
			return nil, fmt.Errorf("aggregate: internal error: %d units undistributed at slot %d", remaining, abs)
		}
	}
	if err := ag.repairTotals(out); err != nil {
		return nil, err
	}
	for i, f := range ag.Constituents {
		if err := f.ValidateAssignment(out[i]); err != nil {
			return nil, fmt.Errorf("aggregate: disaggregated assignment %d invalid: %w", i, err)
		}
	}
	return out, nil
}

// repairTotals moves energy between constituents sharing a time slot
// until every constituent's total lies within [cmin, cmax]. Slot sums
// are preserved by construction. Cheap single-hop passes run first;
// remaining violations fall back to augmenting-path transfers
// (repair.go), which find a redistribution whenever one exists, so
// ErrRepairInfeasible is returned only for genuinely undecomposable
// aggregate assignments.
func (ag *oracleAggregated) repairTotals(out []flexoffer.Assignment) error {
	for pass := 0; pass < len(ag.Constituents)+1; pass++ {
		moved := false
		for i, f := range ag.Constituents {
			need := f.TotalMin - out[i].TotalEnergy()
			if need <= 0 {
				continue
			}
			if ag.transferInto(out, i, need) {
				moved = true
			}
		}
		for i, f := range ag.Constituents {
			excess := out[i].TotalEnergy() - f.TotalMax
			if excess <= 0 {
				continue
			}
			if ag.transferOutOf(out, i, excess) {
				moved = true
			}
		}
		if ag.totalsSatisfied(out) {
			return nil
		}
		if !moved {
			break
		}
	}
	// Multi-hop phase: chain transfers through intermediaries.
	for i, f := range ag.Constituents {
		if need := f.TotalMin - out[i].TotalEnergy(); need > 0 {
			ag.augmentInto(out, i, need)
		}
	}
	for i, f := range ag.Constituents {
		if excess := out[i].TotalEnergy() - f.TotalMax; excess > 0 {
			ag.augmentOutOf(out, i, excess)
		}
	}
	if ag.totalsSatisfied(out) {
		return nil
	}
	return ErrRepairInfeasible
}

func (ag *oracleAggregated) totalsSatisfied(out []flexoffer.Assignment) bool {
	for i, f := range ag.Constituents {
		tot := out[i].TotalEnergy()
		if tot < f.TotalMin || tot > f.TotalMax {
			return false
		}
	}
	return true
}

// transferInto raises constituent i's total by up to need, taking energy
// from co-resident constituents that can spare it (staying above their
// own cmin and slice minima). Reports whether any energy moved.
func (ag *oracleAggregated) transferInto(out []flexoffer.Assignment, i int, need int64) bool {
	f := ag.Constituents[i]
	moved := false
	for j := 0; j < f.NumSlices() && need > 0; j++ {
		abs := out[i].Start + j
		room := f.Slices[j].Max - out[i].Values[j]
		if room <= 0 {
			continue
		}
		for k, g := range ag.Constituents {
			if k == i || need <= 0 || room <= 0 {
				continue
			}
			jk := abs - out[k].Start
			if jk < 0 || jk >= g.NumSlices() {
				continue
			}
			spareSlot := out[k].Values[jk] - g.Slices[jk].Min
			spareTotal := out[k].TotalEnergy() - g.TotalMin
			amt := min(spareSlot, spareTotal, room, need)
			if amt <= 0 {
				continue
			}
			out[k].Values[jk] -= amt
			out[i].Values[j] += amt
			need -= amt
			room -= amt
			moved = true
		}
	}
	return moved
}

// transferOutOf lowers constituent i's total by up to excess, pushing
// energy to co-resident constituents with headroom (staying below their
// own cmax and slice maxima). Reports whether any energy moved.
func (ag *oracleAggregated) transferOutOf(out []flexoffer.Assignment, i int, excess int64) bool {
	f := ag.Constituents[i]
	moved := false
	for j := 0; j < f.NumSlices() && excess > 0; j++ {
		abs := out[i].Start + j
		spare := out[i].Values[j] - f.Slices[j].Min
		if spare <= 0 {
			continue
		}
		for k, g := range ag.Constituents {
			if k == i || excess <= 0 || spare <= 0 {
				continue
			}
			jk := abs - out[k].Start
			if jk < 0 || jk >= g.NumSlices() {
				continue
			}
			roomSlot := g.Slices[jk].Max - out[k].Values[jk]
			roomTotal := g.TotalMax - out[k].TotalEnergy()
			amt := min(roomSlot, roomTotal, spare, excess)
			if amt <= 0 {
				continue
			}
			out[i].Values[j] -= amt
			out[k].Values[jk] += amt
			excess -= amt
			spare -= amt
			moved = true
		}
	}
	return moved
}

// anchor returns constituent i's δ=0 start time. Aggregated values built
// by callers without anchors (zero value) fall back to earliest-start
// alignment.
func (ag *oracleAggregated) anchor(i int) int {
	if ag.anchors == nil {
		return ag.Constituents[i].EarliestStart
	}
	return ag.anchors[i]
}

// augmentInto raises constituent target's total by up to need using
// augmenting-path transfers, preserving all slot sums and slice bounds
// and never driving any other constituent below its own total minimum.
// It returns the amount actually moved.
func (ag *oracleAggregated) augmentInto(out []flexoffer.Assignment, target int, need int64) int64 {
	var moved int64
	for moved < need {
		path, bottleneck := ag.findPath(out, target, need-moved)
		if len(path) == 0 || bottleneck <= 0 {
			break
		}
		for _, st := range path {
			jg := st.abs - out[st.gainer].Start
			jl := st.abs - out[st.loser].Start
			out[st.gainer].Values[jg] += bottleneck
			out[st.loser].Values[jl] -= bottleneck
		}
		moved += bottleneck
	}
	return moved
}

// augmentOutOf lowers constituent target's total by up to excess, the
// mirror image of augmentInto: the chain pushes energy away from target
// towards a constituent with headroom below its total maximum.
func (ag *oracleAggregated) augmentOutOf(out []flexoffer.Assignment, target int, excess int64) int64 {
	var moved int64
	for moved < excess {
		path, bottleneck := ag.findDrainPath(out, target, excess-moved)
		if len(path) == 0 || bottleneck <= 0 {
			break
		}
		for _, st := range path {
			jg := st.abs - out[st.gainer].Start
			jl := st.abs - out[st.loser].Start
			out[st.gainer].Values[jg] += bottleneck
			out[st.loser].Values[jl] -= bottleneck
		}
		moved += bottleneck
	}
	return moved
}

// findPath searches breadth-first for a chain of same-slot transfers
// ending at a constituent that can give up energy while staying at or
// above its total minimum. Hops are returned in application order with
// the bottleneck amount (capped at want).
func (ag *oracleAggregated) findPath(out []flexoffer.Assignment, target int, want int64) ([]repairStep, int64) {
	n := len(ag.Constituents)
	visited := make([]bool, n)
	states := make([]pathState, n)
	queue := []int{target}
	visited[target] = true
	states[target] = pathState{prev: -1, cap: want}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		f := ag.Constituents[cur]
		for j := 0; j < f.NumSlices(); j++ {
			abs := out[cur].Start + j
			gainRoom := f.Slices[j].Max - out[cur].Values[j]
			if gainRoom <= 0 {
				continue
			}
			for k, g := range ag.Constituents {
				if visited[k] || k == cur {
					continue
				}
				jk := abs - out[k].Start
				if jk < 0 || jk >= g.NumSlices() {
					continue
				}
				slotSpare := out[k].Values[jk] - g.Slices[jk].Min
				if slotSpare <= 0 {
					continue
				}
				bottleneck := min(states[cur].cap, gainRoom, slotSpare)
				visited[k] = true
				states[k] = pathState{prev: cur, prevAbs: abs, cap: bottleneck}
				if totalSpare := out[k].TotalEnergy() - g.TotalMin; totalSpare > 0 {
					return tracePath(states, k), min(bottleneck, totalSpare)
				}
				queue = append(queue, k)
			}
		}
	}
	return nil, 0
}

// findDrainPath is findPath with the transfer direction reversed: the
// source sheds energy hop by hop until a constituent with total headroom
// absorbs it.
func (ag *oracleAggregated) findDrainPath(out []flexoffer.Assignment, target int, want int64) ([]repairStep, int64) {
	n := len(ag.Constituents)
	visited := make([]bool, n)
	states := make([]pathState, n)
	queue := []int{target}
	visited[target] = true
	states[target] = pathState{prev: -1, cap: want}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		f := ag.Constituents[cur]
		for j := 0; j < f.NumSlices(); j++ {
			abs := out[cur].Start + j
			loseSpare := out[cur].Values[j] - f.Slices[j].Min
			if loseSpare <= 0 {
				continue
			}
			for k, g := range ag.Constituents {
				if visited[k] || k == cur {
					continue
				}
				jk := abs - out[k].Start
				if jk < 0 || jk >= g.NumSlices() {
					continue
				}
				gainRoom := g.Slices[jk].Max - out[k].Values[jk]
				if gainRoom <= 0 {
					continue
				}
				bottleneck := min(states[cur].cap, loseSpare, gainRoom)
				visited[k] = true
				states[k] = pathState{prev: cur, prevAbs: abs, cap: bottleneck}
				if headroom := g.TotalMax - out[k].TotalEnergy(); headroom > 0 {
					return traceDrainPath(states, k), min(bottleneck, headroom)
				}
				queue = append(queue, k)
			}
		}
	}
	return nil, 0
}
