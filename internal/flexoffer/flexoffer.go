// Package flexoffer implements the flex-offer model of Definition 1 and
// Definition 2 in Valsomatzis et al., "Measuring and Comparing Energy
// Flexibilities" (EDBT/ICDT Workshops 2015), following the original model
// of Šikšnys et al. (SSDBM 2012).
//
// A flex-offer couples a start-time flexibility interval [tes, tls] with
// an energy profile of consecutive unit-duration slices, each carrying an
// allowed energy range [amin, amax], plus total minimum/maximum energy
// constraints cmin and cmax. A flex-offer is instantiated into an
// Assignment: a concrete start time plus one energy value per slice.
//
// Time has domain N0 and energy domain Z (paper Section 2); any finer
// real-world granularity is obtained by scaling with a coefficient.
package flexoffer

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel validation errors. All validation failures wrap one of these,
// so callers can classify problems with errors.Is.
var (
	ErrNoSlices        = errors.New("flexoffer: profile must contain at least one slice")
	ErrNegativeTime    = errors.New("flexoffer: start times must be non-negative")
	ErrStartOrder      = errors.New("flexoffer: earliest start must not exceed latest start")
	ErrSliceOrder      = errors.New("flexoffer: slice minimum must not exceed slice maximum")
	ErrTotalOrder      = errors.New("flexoffer: total minimum must not exceed total maximum")
	ErrTotalBounds     = errors.New("flexoffer: total constraints must lie within the slice sums")
	ErrNilOffer        = errors.New("flexoffer: nil flex-offer")
	ErrBadAssignment   = errors.New("flexoffer: invalid assignment")
	ErrTooManyToEnum   = errors.New("flexoffer: assignment space too large to enumerate")
	ErrInfeasibleTotal = errors.New("flexoffer: total constraints admit no assignment")
)

// Slice is one unit-duration element of a flex-offer's energy profile,
// holding the allowed energy range [Min, Max] (the paper's [amin, amax]).
type Slice struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// Span returns the width of the slice's energy range, Max−Min.
func (s Slice) Span() int64 { return s.Max - s.Min }

// Contains reports whether v lies within [Min, Max].
func (s Slice) Contains(v int64) bool { return s.Min <= v && v <= s.Max }

// Kind classifies a flex-offer by the sign of the energy it can exchange
// (paper Section 2).
type Kind int

const (
	// Positive flex-offers represent pure consumption (all energy
	// values non-negative), e.g. a dishwasher.
	Positive Kind = iota
	// Negative flex-offers represent pure production (all energy values
	// non-positive), e.g. a solar panel.
	Negative
	// Mixed flex-offers can both consume and produce, e.g. a
	// vehicle-to-grid battery.
	Mixed
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FlexOffer is Definition 1: a start-time flexibility interval
// [EarliestStart, LatestStart], a profile of consecutive slices, and
// total energy constraints TotalMin (cmin) and TotalMax (cmax).
//
// Construct offers with New or the Builder, which apply the paper's
// defaults (totals equal to the slice sums) and validate; a hand-built
// literal should be checked with Validate before use.
type FlexOffer struct {
	// ID is an optional caller-supplied identifier carried through
	// aggregation and scheduling. It does not affect any semantics.
	ID string `json:"id,omitempty"`
	// Zone optionally names the grid zone (or tenant) the offer belongs
	// to. Like ID it carries no model semantics; the shard router uses
	// it as the preferred partitioning key so one zone's offers stay
	// co-located on one engine shard.
	Zone string `json:"zone,omitempty"`
	// EarliestStart is tes, the earliest allowed start time.
	EarliestStart int `json:"earliestStart"`
	// LatestStart is tls, the latest allowed start time.
	LatestStart int `json:"latestStart"`
	// Slices is the energy profile ⟨s(1)…s(s)⟩; each slice lasts one
	// time unit.
	Slices []Slice `json:"slices"`
	// TotalMin is cmin, the total minimum energy constraint.
	TotalMin int64 `json:"totalMin"`
	// TotalMax is cmax, the total maximum energy constraint.
	TotalMax int64 `json:"totalMax"`
}

// New returns a validated flex-offer whose total constraints default to
// the sums of the slice minima and maxima (the loosest totals Definition 1
// allows). Use NewWithTotals to tighten them.
func New(earliestStart, latestStart int, slices ...Slice) (*FlexOffer, error) {
	f := &FlexOffer{
		EarliestStart: earliestStart,
		LatestStart:   latestStart,
		Slices:        append([]Slice(nil), slices...),
	}
	f.TotalMin = f.SumMin()
	f.TotalMax = f.SumMax()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// NewWithTotals returns a validated flex-offer with explicit total energy
// constraints cmin and cmax.
func NewWithTotals(earliestStart, latestStart int, slices []Slice, totalMin, totalMax int64) (*FlexOffer, error) {
	f := &FlexOffer{
		EarliestStart: earliestStart,
		LatestStart:   latestStart,
		Slices:        append([]Slice(nil), slices...),
		TotalMin:      totalMin,
		TotalMax:      totalMax,
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// MustNew is New but panics on error; intended for tests and package-level
// example data where the arguments are constants.
func MustNew(earliestStart, latestStart int, slices ...Slice) *FlexOffer {
	f, err := New(earliestStart, latestStart, slices...)
	if err != nil {
		panic(err)
	}
	return f
}

// Validate checks every structural constraint of Definition 1:
// 0 <= tes <= tls, a non-empty profile, amin <= amax per slice, and
// sum(amin) <= cmin <= cmax <= sum(amax).
func (f *FlexOffer) Validate() error {
	if f == nil {
		return ErrNilOffer
	}
	if len(f.Slices) == 0 {
		return ErrNoSlices
	}
	if f.EarliestStart < 0 {
		return fmt.Errorf("%w: tes=%d", ErrNegativeTime, f.EarliestStart)
	}
	if f.EarliestStart > f.LatestStart {
		return fmt.Errorf("%w: tes=%d tls=%d", ErrStartOrder, f.EarliestStart, f.LatestStart)
	}
	for i, s := range f.Slices {
		if s.Min > s.Max {
			return fmt.Errorf("%w: slice %d has [%d,%d]", ErrSliceOrder, i+1, s.Min, s.Max)
		}
	}
	if f.TotalMin > f.TotalMax {
		return fmt.Errorf("%w: cmin=%d cmax=%d", ErrTotalOrder, f.TotalMin, f.TotalMax)
	}
	if f.TotalMin < f.SumMin() || f.TotalMax > f.SumMax() {
		return fmt.Errorf("%w: cmin=%d cmax=%d, slice sums [%d,%d]",
			ErrTotalBounds, f.TotalMin, f.TotalMax, f.SumMin(), f.SumMax())
	}
	return nil
}

// NumSlices returns s, the number of profile slices (also the duration of
// the profile in time units, since slices last one unit each).
func (f *FlexOffer) NumSlices() int { return len(f.Slices) }

// SumMin returns the sum of the slice minima, the lower bound on cmin.
func (f *FlexOffer) SumMin() int64 {
	var sum int64
	for _, s := range f.Slices {
		sum += s.Min
	}
	return sum
}

// SumMax returns the sum of the slice maxima, the upper bound on cmax.
func (f *FlexOffer) SumMax() int64 {
	var sum int64
	for _, s := range f.Slices {
		sum += s.Max
	}
	return sum
}

// TimeFlexibility returns tf(f) = tls − tes (paper Section 3.1).
func (f *FlexOffer) TimeFlexibility() int { return f.LatestStart - f.EarliestStart }

// EnergyFlexibility returns ef(f) = cmax − cmin (paper Section 3.1).
func (f *FlexOffer) EnergyFlexibility() int64 { return f.TotalMax - f.TotalMin }

// EarliestEnd returns the first time unit after the profile when started
// as early as possible.
func (f *FlexOffer) EarliestEnd() int { return f.EarliestStart + f.NumSlices() }

// LatestEnd returns the first time unit after the profile when started as
// late as possible; the offer can occupy no time unit at or beyond it.
func (f *FlexOffer) LatestEnd() int { return f.LatestStart + f.NumSlices() }

// Kind classifies the offer as Positive (consumption only), Negative
// (production only) or Mixed, from the signs its slice ranges admit.
// An offer whose every slice is fixed at zero is classified Positive.
func (f *FlexOffer) Kind() Kind {
	canPos, canNeg := false, false
	for _, s := range f.Slices {
		if s.Max > 0 {
			canPos = true
		}
		if s.Min < 0 {
			canNeg = true
		}
	}
	switch {
	case canPos && canNeg:
		return Mixed
	case canNeg:
		return Negative
	default:
		return Positive
	}
}

// Clone returns a deep copy of the flex-offer.
func (f *FlexOffer) Clone() *FlexOffer {
	if f == nil {
		return nil
	}
	out := *f
	out.Slices = append([]Slice(nil), f.Slices...)
	return &out
}

// Equal reports whether two flex-offers have identical intervals,
// profiles and totals. IDs and zones are compared too.
func (f *FlexOffer) Equal(o *FlexOffer) bool {
	if f == nil || o == nil {
		return f == o
	}
	if f.ID != o.ID ||
		f.Zone != o.Zone ||
		f.EarliestStart != o.EarliestStart ||
		f.LatestStart != o.LatestStart ||
		f.TotalMin != o.TotalMin ||
		f.TotalMax != o.TotalMax ||
		len(f.Slices) != len(o.Slices) {
		return false
	}
	for i, s := range f.Slices {
		if o.Slices[i] != s {
			return false
		}
	}
	return true
}

// Shift returns a copy of the offer with its start window displaced by
// delta time units. It returns an error if the shift would make the
// earliest start negative.
func (f *FlexOffer) Shift(delta int) (*FlexOffer, error) {
	out := f.Clone()
	out.EarliestStart += delta
	out.LatestStart += delta
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ScaleEnergy returns a copy with every energy quantity (slice ranges and
// totals) multiplied by k. Scaling by a negative k swaps range endpoints
// so the result remains valid; scaling by -1 converts consumption into
// the equivalent production offer.
func (f *FlexOffer) ScaleEnergy(k int64) *FlexOffer {
	out := f.Clone()
	for i, s := range out.Slices {
		lo, hi := s.Min*k, s.Max*k
		if lo > hi {
			lo, hi = hi, lo
		}
		out.Slices[i] = Slice{Min: lo, Max: hi}
	}
	lo, hi := out.TotalMin*k, out.TotalMax*k
	if lo > hi {
		lo, hi = hi, lo
	}
	out.TotalMin, out.TotalMax = lo, hi
	return out
}

// String renders the offer in the paper's notation, e.g.
// "([1,6],⟨[1,3],[2,4],[0,5],[0,3]⟩,cmin=3,cmax=15)".
func (f *FlexOffer) String() string {
	if f == nil {
		return "(nil)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "([%d,%d],⟨", f.EarliestStart, f.LatestStart)
	for i, s := range f.Slices {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", s.Min, s.Max)
	}
	fmt.Fprintf(&b, "⟩,cmin=%d,cmax=%d)", f.TotalMin, f.TotalMax)
	return b.String()
}
