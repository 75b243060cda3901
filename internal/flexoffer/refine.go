package flexoffer

import (
	"errors"
	"fmt"
)

// ErrNotDivisible is returned by Refine when an energy quantity cannot
// be split evenly across the finer time units.
var ErrNotDivisible = errors.New("flexoffer: energy amounts not divisible by the refinement factor")

// ErrBadFactor is returned by Refine for factors < 1.
var ErrBadFactor = errors.New("flexoffer: refinement factor must be >= 1")

// Refine converts the flex-offer to a k-times finer time granularity,
// implementing Section 2's remark that "we can achieve any desired
// finer granularity/precision of time and energy by simply multiplying
// their values with the desirable coefficient":
//
//   - every time coordinate is multiplied by k (a 1-hour slot becomes k
//     sub-slots), and
//   - every slice is split into k consecutive sub-slices, each carrying
//     1/k of the original slice's energy range, so the power level is
//     preserved.
//
// To keep the integer domains exact, every slice bound and both total
// constraints must be divisible by k; otherwise ErrNotDivisible is
// returned (scale the offer's energy first with ScaleEnergy).
//
// Refinement preserves the offer's semantics, which the measures
// reflect predictably: tf multiplies by k (the same wall-clock window
// counts k× more units), ef is preserved, and the joint assignment area
// is preserved (k× more columns, each 1/k as tall). Refine(1) returns a
// plain copy.
func (f *FlexOffer) Refine(k int) (*FlexOffer, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadFactor, k)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if k == 1 {
		return f.Clone(), nil
	}
	k64 := int64(k)
	for i, s := range f.Slices {
		if s.Min%k64 != 0 || s.Max%k64 != 0 {
			return nil, fmt.Errorf("%w: slice %d [%d,%d] by %d", ErrNotDivisible, i+1, s.Min, s.Max, k)
		}
	}
	if f.TotalMin%k64 != 0 || f.TotalMax%k64 != 0 {
		return nil, fmt.Errorf("%w: totals [%d,%d] by %d", ErrNotDivisible, f.TotalMin, f.TotalMax, k)
	}
	out := &FlexOffer{
		ID:            f.ID,
		EarliestStart: f.EarliestStart * k,
		LatestStart:   f.LatestStart * k,
		Slices:        make([]Slice, 0, len(f.Slices)*k),
		TotalMin:      f.TotalMin,
		TotalMax:      f.TotalMax,
	}
	for _, s := range f.Slices {
		sub := Slice{Min: s.Min / k64, Max: s.Max / k64}
		for j := 0; j < k; j++ {
			out.Slices = append(out.Slices, sub)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("flexoffer: internal refinement bug: %w", err)
	}
	return out, nil
}

// TightenTotals returns a copy of the offer whose slice ranges are
// narrowed until their sums coincide with the total constraints: minima
// are raised left to right until Σ amin = cmin, and maxima lowered left
// to right until Σ amax = cmax. Afterwards every slice-valid assignment
// automatically satisfies the total constraints, and every assignment of
// the tightened offer is valid for the original.
//
// Tightening trades flexibility for decomposability: the tightened offer
// admits fewer assignments (measurably so, under any of the measures),
// but start-alignment aggregates built from tightened constituents can
// always be disaggregated by per-slot water-filling, with no
// total-constraint repair. This is the classic slice-bounded form the
// original flex-offer model (Šikšnys et al., SSDBM 2012) assumes.
func (f *FlexOffer) TightenTotals() *FlexOffer {
	out := f.Clone()
	TightenSlices(out.Slices, out.TotalMin, out.TotalMax)
	return out
}

// TightenSlices narrows slices in place the way TightenTotals narrows
// an offer's profile under the totals [totalMin, totalMax]: minima are
// raised left to right until their sum reaches totalMin, then maxima
// lowered left to right until their sum falls to totalMax. Safe
// aggregation tightens its own copy of every constituent's bounds with
// it, so the constituents themselves are never copied.
func TightenSlices(slices []Slice, totalMin, totalMax int64) {
	var sumMin, sumMax int64
	for _, s := range slices {
		sumMin += s.Min
		sumMax += s.Max
	}
	deficit := totalMin - sumMin
	for i := 0; deficit > 0 && i < len(slices); i++ {
		room := slices[i].Max - slices[i].Min
		if room > deficit {
			room = deficit
		}
		slices[i].Min += room
		deficit -= room
	}
	excess := sumMax - totalMax
	for i := 0; excess > 0 && i < len(slices); i++ {
		spare := slices[i].Max - slices[i].Min
		if spare > excess {
			spare = excess
		}
		slices[i].Max -= spare
		excess -= spare
	}
}

// Coarsen is the inverse of Refine: it merges every k consecutive slices
// into one, multiplying the time granularity by k. The number of slices
// and both start times must be divisible by k. Coarsening is lossy in
// general (per-sub-slot flexibility within a merged slot collapses into
// one range); Coarsen(Refine(k)) restores the original offer exactly.
func (f *FlexOffer) Coarsen(k int) (*FlexOffer, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadFactor, k)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if k == 1 {
		return f.Clone(), nil
	}
	if len(f.Slices)%k != 0 {
		return nil, fmt.Errorf("%w: %d slices by %d", ErrNotDivisible, len(f.Slices), k)
	}
	if f.EarliestStart%k != 0 || f.LatestStart%k != 0 {
		return nil, fmt.Errorf("%w: start window [%d,%d] by %d", ErrNotDivisible, f.EarliestStart, f.LatestStart, k)
	}
	out := &FlexOffer{
		ID:            f.ID,
		EarliestStart: f.EarliestStart / k,
		LatestStart:   f.LatestStart / k,
		Slices:        make([]Slice, 0, len(f.Slices)/k),
		TotalMin:      f.TotalMin,
		TotalMax:      f.TotalMax,
	}
	for i := 0; i < len(f.Slices); i += k {
		var merged Slice
		for j := 0; j < k; j++ {
			merged.Min += f.Slices[i+j].Min
			merged.Max += f.Slices[i+j].Max
		}
		out.Slices = append(out.Slices, merged)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("flexoffer: internal coarsening bug: %w", err)
	}
	return out, nil
}
