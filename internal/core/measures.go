// Package core implements the eight flexibility measures of Valsomatzis
// et al., "Measuring and Comparing Energy Flexibilities" (EDBT/ICDT
// Workshops 2015): time, energy, product, vector, time-series,
// assignments, absolute area-based and relative area-based flexibility
// (paper Sections 3.1–3.2, Definitions 3–11).
//
// The measures are available in two forms: plain functions (this file),
// which preserve the exact types of the definitions (integers, vectors,
// big integers), and the Measure interface (measure.go), which presents
// every measure uniformly as a float64 so sets of flex-offers can be
// compared, ranked and tabulated. Table 1 of the paper is encoded and
// empirically verified in characteristics.go.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grid"
	"flexmeasures/internal/timeseries"
)

// ErrZeroTotals is returned by RelativeAreaFlexibility when
// |cmin|+|cmax| = 0, which Definition 11 excludes.
var ErrZeroTotals = errors.New("core: relative area flexibility undefined for |cmin|+|cmax| = 0")

// TimeFlexibility returns tf(f) = tls − tes in time units (Section 3.1).
func TimeFlexibility(f *flexoffer.FlexOffer) int {
	return f.TimeFlexibility()
}

// EnergyFlexibility returns ef(f) = cmax − cmin in energy units
// (Section 3.1).
func EnergyFlexibility(f *flexoffer.FlexOffer) int64 {
	return f.EnergyFlexibility()
}

// ProductFlexibility is Definition 3: tf(f) · ef(f).
//
// As the paper's Example 11 discusses, the product collapses to zero as
// soon as either dimension is inflexible, so it should only be used when
// both flexibilities are known to be positive.
func ProductFlexibility(f *flexoffer.FlexOffer) int64 {
	return int64(f.TimeFlexibility()) * f.EnergyFlexibility()
}

// Vector is Definition 4's flexibility vector v = ⟨tf(f), ef(f)⟩.
type Vector struct {
	// Time is the first component, tf(f).
	Time int
	// Energy is the second component, ef(f).
	Energy int64
}

// L1 returns the Manhattan length of the vector.
func (v Vector) L1() float64 {
	return math.Abs(float64(v.Time)) + math.Abs(float64(v.Energy))
}

// L2 returns the Euclidean length of the vector.
func (v Vector) L2() float64 {
	t, e := float64(v.Time), float64(v.Energy)
	return math.Sqrt(t*t + e*e)
}

// Norm returns the vector's length under the given norm.
func (v Vector) Norm(n timeseries.Norm) (float64, error) {
	switch n {
	case timeseries.L1:
		return v.L1(), nil
	case timeseries.L2:
		return v.L2(), nil
	case timeseries.LInf:
		t, e := math.Abs(float64(v.Time)), math.Abs(float64(v.Energy))
		return math.Max(t, e), nil
	default:
		return 0, fmt.Errorf("%w: %d", timeseries.ErrBadNorm, int(n))
	}
}

// String renders the vector in the paper's notation, e.g. "⟨5,12⟩".
func (v Vector) String() string { return fmt.Sprintf("⟨%d,%d⟩", v.Time, v.Energy) }

// VectorFlexibility is Definition 4: the vector ⟨tf(f), ef(f)⟩. Apply a
// norm (Vector.L1, Vector.L2) to obtain a single value.
func VectorFlexibility(f *flexoffer.FlexOffer) Vector {
	return Vector{Time: f.TimeFlexibility(), Energy: f.EnergyFlexibility()}
}

// SeriesDifference returns the Definition 7 difference time series
// fmax_a(f) − fmin_a(f): the maximum assignment (slice maxima positioned
// at the latest start, Definition 6) minus the minimum assignment (slice
// minima at the earliest start, Definition 5), over the union of their
// domains.
func SeriesDifference(f *flexoffer.FlexOffer) timeseries.Series {
	return timeseries.Sub(f.MaxAssignment().Series(), f.MinAssignment().Series())
}

// SeriesFlexibility is Definition 7 evaluated with the given norm: the
// norm of the difference between the maximum and minimum assignments,
// each positioned at its own extreme start time, exactly as in the
// paper's Figure 2.
//
// Note (EXPERIMENTS.md, deviation D4): because the extremes are
// positioned at different start times, the literal Definition 7 value
// grows with the magnitude of the profile whenever tf(f) > 0 — i.e. it
// is size-dependent, although Table 1 declares the measure
// size-independent. AlignedSeriesFlexibility is the variant for which
// every Table 1 cell holds.
func SeriesFlexibility(f *flexoffer.FlexOffer, n timeseries.Norm) (float64, error) {
	return SeriesDifference(f).NormValue(n)
}

// AlignedSeriesFlexibility evaluates Definition 7 with both extreme
// assignments aligned at the same start time, so the difference reduces
// to the per-slice energy spans ⟨amax−amin⟩. This variant matches every
// characteristic the paper's Table 1 claims for the time-series measure
// (it sees energy flexibility only) and coincides with SeriesFlexibility
// whenever tf(f) = 0 or the profiles do not overlap.
//
// With both extremes at one start, Sub(max, min) is the span series
// d_i = amax_i − amin_i over the offer's own domain, so the norm is
// folded straight over the slices, without building either assignment:
// Σ|d_i|, √Σd_i² or max|d_i|, accumulated in slice order from +0 — the
// float operations of NormL1, NormL2 and NormLInf, so the value is
// bit-identical to the series form and the call allocates nothing.
func AlignedSeriesFlexibility(f *flexoffer.FlexOffer, n timeseries.Norm) (float64, error) {
	var acc float64
	switch n {
	case timeseries.L1:
		for _, s := range f.Slices {
			acc += math.Abs(float64(s.Max - s.Min))
		}
	case timeseries.L2:
		for _, s := range f.Slices {
			d := float64(s.Max - s.Min)
			acc += d * d
		}
		acc = math.Sqrt(acc)
	case timeseries.LInf:
		for _, s := range f.Slices {
			if a := math.Abs(float64(s.Max - s.Min)); a > acc {
				acc = a
			}
		}
	default:
		return 0, fmt.Errorf("%w: %d", timeseries.ErrBadNorm, int(n))
	}
	return acc, nil
}

// AssignmentFlexibility is Definition 8: the number of possible
// assignments (tls−tes+1) · ∏(amax−amin+1), as a big integer. Like the
// paper's definition it ignores the total energy constraints; see
// flexoffer.ValidAssignmentCount for the constrained count.
func AssignmentFlexibility(f *flexoffer.FlexOffer) *big.Int {
	return f.AssignmentCount()
}

// AbsoluteAreaFlexibility is Definition 10: the size of the total area
// jointly covered by all assignments of f, minus the inflexible baseline
// amount.
//
// The baseline follows Section 4: for consumption (positive) flex-offers
// it is cmin; for production (negative) flex-offers, where amounts are
// negative, |cmax| is "used instead". For mixed flex-offers the paper
// deems the measure infeasible but still evaluates Example 15 as
// area − cmin; we reproduce that arithmetic so the example's values
// (32 for f6) are obtainable, and the measure's declared characteristics
// (Table 1) mark mixed offers as not captured.
func AbsoluteAreaFlexibility(f *flexoffer.FlexOffer) int64 {
	area := grid.UnionAreaSize(f)
	if f.Kind() == flexoffer.Negative {
		cmax := f.TotalMax
		if cmax < 0 {
			cmax = -cmax
		}
		return area - cmax
	}
	return area - f.TotalMin
}

// RelativeAreaFlexibility is Definition 11: the absolute area-based
// flexibility divided by the average of |cmin| and |cmax|,
//
//	2·absolute_area_flexibility(f) / (|cmin| + |cmax|),
//
// defined only when |cmin|+|cmax| ≠ 0. It is the paper's
// size-independent measure for comparing flex-offers of different energy
// magnitudes.
func RelativeAreaFlexibility(f *flexoffer.FlexOffer) (float64, error) {
	den := abs64(f.TotalMin) + abs64(f.TotalMax)
	if den == 0 {
		return 0, ErrZeroTotals
	}
	return 2 * float64(AbsoluteAreaFlexibility(f)) / float64(den), nil
}

// DisplacementFlexibility is an extension beyond the paper (Section 6
// lists "new types of measures capturing more aspects" as future work).
// It cures the time-blindness of the series measure (Example 13) by
// measuring how far the offer's energy can travel in time: the temporal
// L1 distance (earth-mover distance, via timeseries.TemporalLp) between
// the maximum profile executed at the earliest and at the latest start.
// For a profile with total energy E and time flexibility tf the value is
// |E|·tf; the Example 13 offers f1 and f1' score 1 and 10 as desired.
func DisplacementFlexibility(f *flexoffer.FlexOffer) (float64, error) {
	early := f.MaxAssignment()
	early.Start = f.EarliestStart
	late := f.MaxAssignment()
	return timeseries.Sub(late.Series(), early.Series()).TemporalLp(1)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
