// Package aggregate implements flex-offer aggregation and disaggregation,
// the substrate of the paper's Scenario 1 (Section 1) and the subject of
// its references [14] (Valsomatzis et al., DARE 2014) and [15] (Šikšnys
// et al., SSDBM 2012).
//
// Aggregation combines N flex-offers into one aggregated flex-offer so
// that scheduling has fewer objects to consider; disaggregation maps an
// assignment of the aggregate back to valid assignments of the
// constituents. Aggregation generally loses flexibility — quantifying
// that loss with the paper's measures is exactly what the measures are
// for ("it is essential to quantify and then to minimize flexibility
// losses", Scenario 1) — and the Loss helper computes it for any measure.
//
// The implementation uses start-alignment aggregation: every constituent
// is anchored at its own earliest start time, and one common shift
// δ ∈ [0, min tf(fᵢ)] is applied to all constituents when the aggregate
// is scheduled. The aggregate's profile is the slot-wise sum of the
// anchored constituent profiles, and its time flexibility is the minimum
// of the constituents' — the flexibility "lost" is visible to every
// measure that sees time.
package aggregate

import (
	"errors"
	"fmt"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
)

// Sentinel errors.
var (
	ErrEmptyGroup       = errors.New("aggregate: empty group")
	ErrNotConstituent   = errors.New("aggregate: assignment does not belong to this aggregate")
	ErrRepairInfeasible = errors.New("aggregate: could not satisfy constituent total constraints")
)

// Aggregated couples an aggregate flex-offer with the constituents it
// was built from, retaining what disaggregation needs.
type Aggregated struct {
	// Offer is the aggregate flex-offer. Its ID is "agg(n)" for n
	// constituents unless renamed by the caller.
	Offer *flexoffer.FlexOffer
	// Constituents are the original flex-offers, in input order.
	Constituents []*flexoffer.FlexOffer
	// anchors[i] is constituent i's start time when the aggregate is
	// scheduled at its earliest start (δ = 0); the common shift δ adds
	// to every anchor.
	anchors []int
}

// Alignment selects how constituents are anchored relative to each
// other inside an aggregate. The choice changes the shape of the
// aggregate profile whenever the group's time flexibilities differ, and
// therefore changes how much flexibility aggregation retains — an axis
// the paper's reference [15] explores and experiment X9 ablates.
type Alignment int

const (
	// AlignEarliest anchors every constituent at its earliest start
	// time: at δ = 0 each constituent starts as early as it can.
	AlignEarliest Alignment = iota
	// AlignLatest anchors every constituent at its latest start minus
	// the aggregate's time flexibility: at the aggregate's latest
	// start (δ = minTF) each constituent starts as late as it can.
	AlignLatest
)

// String names the alignment.
func (al Alignment) String() string {
	switch al {
	case AlignEarliest:
		return "earliest"
	case AlignLatest:
		return "latest"
	default:
		return fmt.Sprintf("Alignment(%d)", int(al))
	}
}

// Aggregate combines the group into one aggregated flex-offer by
// earliest-start alignment. It returns ErrEmptyGroup for an empty group;
// single-offer groups aggregate to (a copy of) the offer itself.
func Aggregate(group []*flexoffer.FlexOffer) (*Aggregated, error) {
	return AggregateAligned(group, AlignEarliest)
}

// AggregateAligned combines the group under the chosen alignment. The
// Constituents are copies of the group (flexoffer.CloneAll).
func AggregateAligned(group []*flexoffer.FlexOffer, al Alignment) (*Aggregated, error) {
	if err := validateGroup(group); err != nil {
		return nil, err
	}
	return aggregateOwned(flexoffer.CloneAll(group), al)
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

// aggregateOwned combines a validated, non-empty group under al. The
// group becomes the aggregate's Constituents as is, so the caller
// hands over copies it owns.
func aggregateOwned(group []*flexoffer.FlexOffer, al Alignment) (*Aggregated, error) {
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
	return &Aggregated{Offer: agg, Constituents: group, anchors: anchors}, nil
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
func (ag *Aggregated) Disaggregate(a flexoffer.Assignment) ([]flexoffer.Assignment, error) {
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
func (ag *Aggregated) repairTotals(out []flexoffer.Assignment) error {
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

func (ag *Aggregated) totalsSatisfied(out []flexoffer.Assignment) bool {
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
func (ag *Aggregated) transferInto(out []flexoffer.Assignment, i int, need int64) bool {
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
func (ag *Aggregated) transferOutOf(out []flexoffer.Assignment, i int, excess int64) bool {
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

// Loss quantifies the flexibility an aggregation gave up under measure m:
// the set value of the constituents minus the value of the aggregate
// (Scenario 1: "it is essential to quantify and then to minimize
// flexibility losses, and therefore a flexibility measure is needed").
// Positive values mean the aggregate is less flexible than the parts.
func (ag *Aggregated) Loss(m core.Measure) (float64, error) {
	before, err := m.SetValue(ag.Constituents)
	if err != nil {
		return 0, fmt.Errorf("aggregate: measuring constituents: %w", err)
	}
	after, err := m.Value(ag.Offer)
	if err != nil {
		return 0, fmt.Errorf("aggregate: measuring aggregate: %w", err)
	}
	return before - after, nil
}

// GroupParams controls the similarity thresholds AggregateAll groups
// with, mirroring the grouping parameters of reference [15]. It is the
// grouping package's threshold Params.
type GroupParams = grouping.Params

// AggregateSafe aggregates the group after tightening every
// constituent's total constraints into its slice bounds
// (flexoffer.TightenTotals). The resulting aggregate is guaranteed
// disaggregable for *every* valid assignment: water-filling within the
// tightened slice ranges satisfies each constituent's totals by
// construction, so Disaggregate never needs the repair pass and never
// returns ErrRepairInfeasible.
//
// The price is measurable flexibility: constituents whose totals were
// strictly tighter than their slice sums lose the corresponding slack.
// Use plain Aggregate when the caller controls which aggregate
// assignments occur (e.g. it always schedules near the energy minimum),
// and AggregateSafe when arbitrary valid assignments must disaggregate
// (e.g. the aggregate is sold into a market, Scenario 2).
//
// The returned Aggregated's Constituents hold the *tightened* offers,
// copied once (flexoffer.TightenTotalsAll); any assignment valid for a
// tightened constituent is valid for the original it was derived from
// (tightened ranges are subsets).
func AggregateSafe(group []*flexoffer.FlexOffer) (*Aggregated, error) {
	for i, f := range group {
		if f == nil {
			return nil, fmt.Errorf("aggregate: constituent %d: %w", i, flexoffer.ErrNilOffer)
		}
	}
	tightened := flexoffer.TightenTotalsAll(group)
	if err := validateGroup(tightened); err != nil {
		return nil, err
	}
	return aggregateOwned(tightened, AlignEarliest)
}

// AggregateAll groups the offers with p and aggregates every group,
// returning the aggregates in group order.
func AggregateAll(offers []*flexoffer.FlexOffer, p GroupParams) ([]*Aggregated, error) {
	return aggregateGroups(grouping.Group(offers, p), Aggregate)
}

// AggregateAllSafe is AggregateAll using AggregateSafe per group.
func AggregateAllSafe(offers []*flexoffer.FlexOffer, p GroupParams) ([]*Aggregated, error) {
	return aggregateGroups(grouping.Group(offers, p), AggregateSafe)
}

// aggregateGroups is the serial pipeline. Failures carry the full
// identifying context of the failing group (index, size, first
// constituent ID) as a *GroupError, matching the parallel pipeline, so a
// failing group in a 10k-group batch is identifiable from the error
// alone.
func aggregateGroups(groups [][]*flexoffer.FlexOffer, agg func([]*flexoffer.FlexOffer) (*Aggregated, error)) ([]*Aggregated, error) {
	out := make([]*Aggregated, 0, len(groups))
	for i, g := range groups {
		ag, err := agg(g)
		if err != nil {
			return nil, newGroupError(i, g, err)
		}
		out = append(out, ag)
	}
	return out, nil
}

// anchor returns constituent i's δ=0 start time. Aggregated values built
// by callers without anchors (zero value) fall back to earliest-start
// alignment.
func (ag *Aggregated) anchor(i int) int {
	if ag.anchors == nil {
		return ag.Constituents[i].EarliestStart
	}
	return ag.anchors[i]
}
