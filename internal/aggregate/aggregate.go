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
	"strconv"

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
	// Constituents are the caller's flex-offers, in input order: a
	// fresh copy of the group's pointer slice, never a view of it, so
	// an aggregate kept across calls pins only its own offers. The
	// offers themselves are not copied (and, for a safe aggregate, not
	// tightened); treat them as immutable.
	Constituents []*flexoffer.FlexOffer
	// cons[i] is constituent i's layout in bounds; bounds holds every
	// constituent's slice bounds back to back — tightened for a safe
	// aggregate. Both are pointer-free, so the collector never scans
	// them, and disaggregation reads only them, never Constituents.
	cons   []constituent
	bounds []flexoffer.Slice
	// mode is how the layouts were built: validated (Aggregate) or
	// tightened (AggregateSafe); the zero value for an aggregate
	// without them. A Prior copies a layout only between equal modes.
	mode layoutMode
	// align and minTF fix every constituent's δ=0 start (anchor).
	align Alignment
	minTF int
}

// constituent is one constituent's disaggregation layout: its start
// window and totals, and the span bounds[lo:lo+n] of its slice bounds.
// A disaggregated assignment's Values occupy the same span of one value
// slab. The span fields are int32 — no group's slices could fill
// memory past that — which keeps the layout at 40 bytes per
// constituent, the bulk of what a cached aggregate holds.
type constituent struct {
	est, lst           int
	totalMin, totalMax int64
	lo, n              int32
}

// span returns the constituent's bounds span [lo, hi).
func (c *constituent) span() (lo, hi int) { return int(c.lo), int(c.lo) + int(c.n) }

// anchor returns the constituent's start when the aggregate is
// scheduled at its earliest start (δ = 0).
func (ag *Aggregated) anchor(c *constituent) int {
	if ag.align == AlignLatest {
		return c.lst - ag.minTF
	}
	return c.est
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
// Constituents are a copy of the group's pointer slice; the offers
// themselves are not copied.
func AggregateAligned(group []*flexoffer.FlexOffer, al Alignment) (*Aggregated, error) {
	if len(group) == 0 {
		return nil, ErrEmptyGroup
	}
	ag, _, err := build(group, al, validated, source{})
	return ag, err
}

// aggregate is Aggregate (mode validated) or AggregateSafe (mode
// tightened) with the members' layouts copied from src where it holds
// them. It also returns how many it copied.
func (mode layoutMode) aggregate(group []*flexoffer.FlexOffer, src source) (*Aggregated, int, error) {
	if mode == tightened {
		for i, f := range group {
			if f == nil {
				return nil, 0, fmt.Errorf("aggregate: constituent %d: %w", i, flexoffer.ErrNilOffer)
			}
		}
	}
	if len(group) == 0 {
		return nil, 0, ErrEmptyGroup
	}
	return build(group, AlignEarliest, mode, src)
}

// build combines a non-empty group under al, laying its members out
// with layoutOf under mode (copied from src where it holds them). It
// also returns how many layouts it copied.
func build(group []*flexoffer.FlexOffer, al Alignment, mode layoutMode, src source) (*Aggregated, int, error) {
	cons, bounds, reused, err := layoutOf(group, mode, src)
	if err != nil {
		return nil, 0, err
	}
	minTF := cons[0].lst - cons[0].est
	for i := range cons[1:] {
		minTF = min(minTF, cons[i+1].lst-cons[i+1].est)
	}
	if al != AlignEarliest && al != AlignLatest {
		return nil, 0, fmt.Errorf("aggregate: unknown alignment %d", int(al))
	}
	ag := &Aggregated{cons: cons, bounds: bounds, mode: mode, align: al, minTF: minTF}
	base, end := ag.anchor(&cons[0]), ag.anchor(&cons[0])+int(cons[0].n)
	for i := range cons {
		base = min(base, ag.anchor(&cons[i]))
		end = max(end, ag.anchor(&cons[i])+int(cons[i].n))
	}
	slices := make([]flexoffer.Slice, end-base)
	var totalMin, totalMax int64
	for i := range cons {
		c := &cons[i]
		sum := slices[ag.anchor(c)-base:]
		lo, hi := c.span()
		for j, s := range bounds[lo:hi] {
			sum[j].Min += s.Min
			sum[j].Max += s.Max
		}
		totalMin += c.totalMin
		totalMax += c.totalMax
	}
	agg := &flexoffer.FlexOffer{
		EarliestStart: base,
		LatestStart:   base + minTF,
		Slices:        slices,
		TotalMin:      totalMin,
		TotalMax:      totalMax,
	}
	if err := agg.Validate(); err != nil {
		return nil, 0, fmt.Errorf("aggregate: building aggregate: %w", err)
	}
	// Not fmt.Sprintf: its printer comes from a sync.Pool, which a race
	// build empties at random, so the allocation count would vary.
	agg.ID = "agg(" + strconv.Itoa(len(group)) + ")"
	ag.Offer = agg
	ag.Constituents = make([]*flexoffer.FlexOffer, len(group))
	copy(ag.Constituents, group)
	return ag, reused, nil
}

// layoutMode says what layoutOf does with a member it reads from its
// offer.
type layoutMode uint8

const (
	// asIs copies the bounds unchecked: the layout Disaggregate derives
	// for an aggregate its caller assembled.
	asIs layoutMode = iota
	// validated validates the offer, then copies its bounds (Aggregate).
	validated
	// tightened copies the bounds, narrows the copy to the offer's
	// totals (flexoffer.TightenSlices) and validates the narrowed offer,
	// exactly as validating a flexoffer.TightenTotals copy would
	// (AggregateSafe).
	tightened
)

// layoutOf lays the group's members out in one fresh slab: each
// member's constituent record and its bounds span, under mode. A
// member src holds a layout for (see Prior) has it copied; every other
// member is read from its offer. Members that fail validation are
// reported by their index in the group, the first one first, as
// without src: a copied layout was validated when its source was
// built. It also returns how many layouts it copied.
//
// Two passes over the members resolve the same sources — the first
// sizes the slab and validates (mode validated), the second fills it —
// so nothing per member is kept between them.
func layoutOf(group []*flexoffer.FlexOffer, mode layoutMode, src source) ([]constituent, []flexoffer.Slice, int, error) {
	n := 0
	at := src.at
	for i, f := range group {
		if a, j, ok := src.prior.source(&at, f, mode); ok {
			n += int(a.cons[j].n)
			continue
		}
		if mode == validated {
			if err := f.Validate(); err != nil {
				return nil, nil, 0, fmt.Errorf("aggregate: constituent %d: %w", i, err)
			}
		}
		n += len(f.Slices)
	}
	cons := make([]constituent, len(group))
	bounds := make([]flexoffer.Slice, n)
	lo, reused := 0, 0
	at = src.at
	for i, f := range group {
		if a, j, ok := src.prior.source(&at, f, mode); ok {
			slo, shi := a.cons[j].span()
			cons[i] = a.cons[j]
			cons[i].lo = int32(lo)
			lo += copy(bounds[lo:], a.bounds[slo:shi])
			reused++
			continue
		}
		hi := lo + copy(bounds[lo:], f.Slices)
		if mode == tightened {
			b := bounds[lo:hi:hi]
			flexoffer.TightenSlices(b, f.TotalMin, f.TotalMax)
			view := flexoffer.FlexOffer{EarliestStart: f.EarliestStart, LatestStart: f.LatestStart,
				Slices: b, TotalMin: f.TotalMin, TotalMax: f.TotalMax}
			if err := view.Validate(); err != nil {
				return nil, nil, 0, fmt.Errorf("aggregate: constituent %d: %w", i, err)
			}
		}
		cons[i] = constituent{est: f.EarliestStart, lst: f.LatestStart,
			totalMin: f.TotalMin, totalMax: f.TotalMax, lo: int32(lo), n: int32(hi - lo)}
		lo = hi
	}
	return cons, bounds, reused, nil
}

// layout returns the aggregate's constituent layout and bounds slab.
// An Aggregated built by a caller without them (the zero value plus
// Offer and Constituents) gets them derived from its Constituents,
// untightened and anchored at their earliest starts.
func (ag *Aggregated) layout() ([]constituent, []flexoffer.Slice) {
	if ag.cons == nil {
		cons, bounds, _, _ := layoutOf(ag.Constituents, asIs, source{})
		return cons, bounds
	}
	return ag.cons, ag.bounds
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
//
// It reads the aggregate's own bounds slab only — the bounds a safe
// aggregate tightened — never the constituent offers.
func (ag *Aggregated) Disaggregate(a flexoffer.Assignment) ([]flexoffer.Assignment, error) {
	if err := ag.Offer.ValidateAssignment(a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotConstituent, err)
	}
	cons, bounds := ag.layout()
	delta := a.Start - ag.Offer.EarliestStart
	// One slab holds every constituent's Values, each a capacity-capped
	// view at its bounds span. The running totals are scratch of their
	// own: the slab outlives the call for as long as the assignments do.
	sp := split{cons: cons, bounds: bounds, vals: make([]int64, len(bounds)),
		totals: make([]int64, len(cons)), out: make([]flexoffer.Assignment, len(cons))}
	for i := range cons {
		lo, hi := cons[i].span()
		sp.out[i] = flexoffer.Assignment{Start: ag.anchor(&cons[i]) + delta, Values: sp.vals[lo:hi:hi]}
	}
	// Per-slot distribution: minima first, then water-fill the surplus
	// left to right. parts holds the slab positions sharing the slot.
	parts := make([]int, 0, len(cons))
	for slot, v := range a.Values {
		abs := a.Start + slot
		remaining := v
		parts = parts[:0]
		for i := range cons {
			c := &cons[i]
			if j := abs - sp.out[i].Start; j >= 0 && j < int(c.n) {
				p := int(c.lo) + j
				parts = append(parts, p)
				sp.vals[p] = bounds[p].Min
				remaining -= bounds[p].Min
			}
		}
		for _, p := range parts {
			if remaining <= 0 {
				break
			}
			room := min(bounds[p].Max-sp.vals[p], remaining)
			sp.vals[p] += room
			remaining -= room
		}
		if remaining != 0 {
			// Cannot happen for an assignment valid against the
			// aggregate's summed slice bounds.
			return nil, fmt.Errorf("aggregate: internal error: %d units undistributed at slot %d", remaining, abs)
		}
	}
	for i := range cons {
		lo, hi := cons[i].span()
		for _, v := range sp.vals[lo:hi] {
			sp.totals[i] += v
		}
	}
	if err := sp.repairTotals(); err != nil {
		return nil, err
	}
	for i := range cons {
		c := &cons[i]
		lo, hi := c.span()
		view := flexoffer.FlexOffer{EarliestStart: c.est, LatestStart: c.lst,
			Slices: bounds[lo:hi], TotalMin: c.totalMin, TotalMax: c.totalMax}
		if err := view.ValidateAssignment(sp.out[i]); err != nil {
			return nil, fmt.Errorf("aggregate: disaggregated assignment %d invalid: %w", i, err)
		}
	}
	return sp.out, nil
}

// split is one disaggregation in progress: the aggregate's layout and
// bounds, the constituent assignments being built, their values as one
// flat slab (constituent i's slice j at cons[i].lo+j, the same position
// as its bounds) and every constituent's running total.
type split struct {
	cons   []constituent
	bounds []flexoffer.Slice
	vals   []int64
	totals []int64
	out    []flexoffer.Assignment
}

// at returns the slab position of constituent k's value at absolute
// slot abs, and whether k's profile covers abs.
func (sp *split) at(k, abs int) (int, bool) {
	c := &sp.cons[k]
	j := abs - sp.out[k].Start
	return int(c.lo) + j, j >= 0 && j < int(c.n)
}

// move shifts amt units at one slot from constituent loser (slab
// position q) to constituent gainer (slab position p).
func (sp *split) move(gainer, p, loser, q int, amt int64) {
	sp.vals[p] += amt
	sp.totals[gainer] += amt
	sp.vals[q] -= amt
	sp.totals[loser] -= amt
}

// repairTotals moves energy between constituents sharing a time slot
// until every constituent's total lies within [cmin, cmax]. Slot sums
// are preserved by construction. Cheap single-hop passes run first;
// remaining violations fall back to augmenting-path transfers
// (repair.go), which find a redistribution whenever one exists, so
// ErrRepairInfeasible is returned only for genuinely undecomposable
// aggregate assignments.
func (sp *split) repairTotals() error {
	for pass := 0; pass < len(sp.cons)+1; pass++ {
		moved := false
		for i := range sp.cons {
			if need := sp.cons[i].totalMin - sp.totals[i]; need > 0 && sp.transferInto(i, need) {
				moved = true
			}
		}
		for i := range sp.cons {
			if excess := sp.totals[i] - sp.cons[i].totalMax; excess > 0 && sp.transferOutOf(i, excess) {
				moved = true
			}
		}
		if sp.totalsSatisfied() {
			return nil
		}
		if !moved {
			break
		}
	}
	// Multi-hop phase: chain transfers through intermediaries.
	for i := range sp.cons {
		if need := sp.cons[i].totalMin - sp.totals[i]; need > 0 {
			sp.augmentInto(i, need)
		}
	}
	for i := range sp.cons {
		if excess := sp.totals[i] - sp.cons[i].totalMax; excess > 0 {
			sp.augmentOutOf(i, excess)
		}
	}
	if sp.totalsSatisfied() {
		return nil
	}
	return ErrRepairInfeasible
}

func (sp *split) totalsSatisfied() bool {
	for i := range sp.cons {
		if tot := sp.totals[i]; tot < sp.cons[i].totalMin || tot > sp.cons[i].totalMax {
			return false
		}
	}
	return true
}

// transferInto raises constituent i's total by up to need, taking energy
// from co-resident constituents that can spare it (staying above their
// own cmin and slice minima). Reports whether any energy moved.
func (sp *split) transferInto(i int, need int64) bool {
	c := &sp.cons[i]
	moved := false
	for j := 0; j < int(c.n) && need > 0; j++ {
		abs := sp.out[i].Start + j
		p := int(c.lo) + j
		room := sp.bounds[p].Max - sp.vals[p]
		if room <= 0 {
			continue
		}
		for k := range sp.cons {
			if k == i || need <= 0 || room <= 0 {
				continue
			}
			q, ok := sp.at(k, abs)
			if !ok {
				continue
			}
			spareSlot := sp.vals[q] - sp.bounds[q].Min
			spareTotal := sp.totals[k] - sp.cons[k].totalMin
			amt := min(spareSlot, spareTotal, room, need)
			if amt <= 0 {
				continue
			}
			sp.move(i, p, k, q, amt)
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
func (sp *split) transferOutOf(i int, excess int64) bool {
	c := &sp.cons[i]
	moved := false
	for j := 0; j < int(c.n) && excess > 0; j++ {
		abs := sp.out[i].Start + j
		p := int(c.lo) + j
		spare := sp.vals[p] - sp.bounds[p].Min
		if spare <= 0 {
			continue
		}
		for k := range sp.cons {
			if k == i || excess <= 0 || spare <= 0 {
				continue
			}
			q, ok := sp.at(k, abs)
			if !ok {
				continue
			}
			roomSlot := sp.bounds[q].Max - sp.vals[q]
			roomTotal := sp.cons[k].totalMax - sp.totals[k]
			amt := min(roomSlot, roomTotal, spare, excess)
			if amt <= 0 {
				continue
			}
			sp.move(k, q, i, p, amt)
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
// A safe aggregate's constituents are the original, untightened
// offers, so its loss includes the flexibility tightening gave up.
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
// The tightened bounds live in the aggregate's own bounds slab, the
// one Disaggregate reads; the returned Aggregated's Constituents are the
// caller's offers, untightened and uncopied. Loss and RetainedFraction
// therefore measure a safe aggregate against the original offers, so
// the flexibility tightening gave up counts as aggregation loss. Any
// assignment valid for a tightened constituent is valid for the
// original it was derived from (tightened ranges are subsets).
func AggregateSafe(group []*flexoffer.FlexOffer) (*Aggregated, error) {
	ag, _, err := tightened.aggregate(group, source{})
	return ag, err
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
